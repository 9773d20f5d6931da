//! `SimNet` — the seeded in-memory chaos transport, and the `"sim"`
//! backend that runs training over it.
//!
//! The simulator plays the reference adversary of the self-stabilizing
//! communication literature (Dolev–Dubois–Potop-Butucaru–Tixeuil):
//! unreliable, non-FIFO links that drop, duplicate, reorder, delay, and
//! partition frames — plus worker crash-and-rejoin schedules. Everything
//! derives from a `u64` seed through the workspace [`Prng`]: the same
//! seed produces the same byte-level event order and therefore the same
//! [`RunHistory::digest`](dpbyz_server::RunHistory::digest), which is
//! what lets CI *pin* chaos runs instead of hoping on real sockets.
//!
//! Fidelity over mocking: frames on simulated links are the real wire
//! bytes ([`begin_frame`]/[`StepMessage::encode_frame`]/…), consumed by
//! the real decoders, admitted through the same [`GradGuard`] and
//! replayed from the same [`ResumeRing`] the TCP transport uses. The
//! simulated workers host real [`HonestWorker`]s, so their RNG streams
//! and momentum are bit-identical to their in-process and TCP twins.
//!
//! Losses are modeled as *delayed retransmissions* (TCP's own model —
//! a "dropped" segment is retried, not gone), so a crash-free fault plan
//! is **invisible to the result**: every report still lands inside the
//! (virtual) deadlines and the digest matches the sequential engine's.
//! Crashes are the visible faults: a crashed worker misses broadcasts
//! until its rejoin schedule fires, at which point the `REJOIN`
//! handshake replays the missed steps and its rounds-in-absence are
//! zeroed — bit-identical to a run where it merely straggled those
//! rounds.
//!
//! Time is virtual: the clock advances only through
//! [`Transport::idle`], jumping to the next queued delivery or the next
//! machine deadline. No wall clock, no sleeps, no sockets — a chaos run
//! executes in microseconds.
//!
//! Workers compute when a `STEP` is broadcast, not when its copy is
//! delivered. Every *ready* worker — alive, attached, its cursor at the
//! broadcast step and nothing buffered ahead of it — computes its step
//! from one decode of the broadcast bytes, and its delivery only sends
//! the `GRAD` frame that was already built. From a model dimension of
//! `FANOUT_MIN_DIM` up, the ready workers are split across up to
//! [`std::thread::available_parallelism`] threads, since each stands for
//! a separate machine. A worker computes its steps in strictly increasing
//! order, each a pure function of its own state and that step's bytes,
//! so *when* or on which thread it computes changes neither virtual time
//! nor a single frame byte. Workers that are not ready (late joiners
//! before their first replayed `STEP`, rejoin replays, stragglers under a
//! staleness window) compute on delivery, as their TCP twins do.

use crate::machine::{Event, MachineConfig, Phase};
use crate::protocol::{
    begin_frame, decode_grad, end_frame, peek_grad, session_token, Admission, GradGuard,
    KIND_ABORT, KIND_DONE, KIND_GRAD, KIND_JOIN, KIND_JOIN_FRESH, KIND_READY, KIND_REJOIN,
    KIND_STEP, KIND_WARMUP,
};
use crate::transport::{current_step, drive, CoordinatorError, ResumeRing, Transport};
use bytes::{BufMut, BytesMut};
use dpbyz_core::engine::register_backend;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_core::{ComponentSpec, EngineBackend, RegistryError};
use dpbyz_server::message::{read_array, GradientMessage, StepMessage};
use dpbyz_server::{HonestWorker, RunHistory, RunObserver, RunScratch, ServerCore, WorkerOutput};
use dpbyz_tensor::{Prng, Vector};
use std::collections::BTreeMap;
use std::io;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Extra one-way latency charged per simulated "drop": the frame is not
/// lost, it is redelivered later — TCP's retransmission model, which is
/// what keeps crash-free chaos invisible to the digest.
pub const RETRANSMIT_PENALTY_MS: u64 = 3;

/// Redelivery attempts a frame can lose before the link gives up
/// dropping it (keeps worst-case delay bounded well under the default
/// 10 s deadlines).
const MAX_RETRANSMITS: u32 = 16;

/// Model dimension from which a broadcast's ready workers compute on
/// several threads. Below it a scoped spawn and join (≈ 30 µs) costs
/// more than the workers' steps it would overlap, so they compute
/// serially on the calling thread: on a 2-core host the fan-out lost at
/// d = 128, was mixed at 256 and won from 512 up.
const FANOUT_MIN_DIM: usize = 512;

/// Fault model of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Base one-way latency, ms.
    pub delay_ms: u64,
    /// Uniform extra latency in `0..=jitter_ms` per copy — the reorder
    /// source.
    pub jitter_ms: u64,
    /// Probability a delivery attempt is "dropped" (redelivered
    /// [`RETRANSMIT_PENALTY_MS`] + base later).
    pub drop: f64,
    /// Probability a second copy of the frame is delivered.
    pub dup: f64,
    /// Partition windows `[start_ms, end_ms)`: a delivery landing inside
    /// one is held until the window closes.
    pub partitions: Vec<(u64, u64)>,
}

impl LinkPlan {
    /// A perfect link: 1 ms latency, no faults.
    pub fn clean() -> Self {
        LinkPlan {
            delay_ms: 1,
            jitter_ms: 0,
            drop: 0.0,
            dup: 0.0,
            partitions: Vec::new(),
        }
    }
}

/// A worker crash-and-rejoin schedule, phrased in protocol terms (not
/// milliseconds) so tests stay robust to timing details: the worker dies
/// right after submitting `after_step`'s report and comes back — sending
/// `REJOIN` — when the coordinator broadcasts `rejoin_on_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Which worker crashes.
    pub worker: u32,
    /// Last step it computes (and reports) before dying.
    pub after_step: u32,
    /// The broadcast that triggers its rejoin handshake.
    pub rejoin_on_step: u32,
}

/// A fresh mid-run join schedule: the worker never sends `JOIN` during
/// the join phase; instead it sends `JOIN_FRESH` when the coordinator
/// broadcasts `on_step` (`0` = when warmup starts). The coordinator
/// replays its resume-ring tail — the current model snapshot — and the
/// worker starts computing at the in-flight step, skipping warmup.
/// Runs using late joins need `min_workers`/`quorum` at most
/// `n - late_joiners`, since the join phase closes without them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LateJoinPlan {
    /// Which worker joins late.
    pub worker: u32,
    /// The broadcast that triggers its `JOIN_FRESH` (`0` = warmup).
    pub on_step: u32,
}

/// An explicit straggler schedule: worker `worker`'s reports for steps
/// `from_step..=to_step` are held an extra `extra_ms` on the wire —
/// the knob the reconnect-equivalence suite uses to express "those
/// rounds arrived too late" without a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradDelay {
    /// The straggling worker.
    pub worker: u32,
    /// First delayed step (inclusive).
    pub from_step: u32,
    /// Last delayed step (inclusive).
    pub to_step: u32,
    /// Extra latency, ms.
    pub extra_ms: u64,
}

/// The complete fault schedule of one simulated run: per-link chaos
/// (both directions, per worker) plus explicit crash and straggler
/// schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed the per-link draw streams derive from.
    pub seed: u64,
    /// Coordinator → worker link plans, indexed by worker.
    pub to_worker: Vec<LinkPlan>,
    /// Worker → coordinator link plans, indexed by worker.
    pub to_coord: Vec<LinkPlan>,
    /// Crash-and-rejoin schedules.
    pub crashes: Vec<CrashPlan>,
    /// Fresh mid-run join schedules.
    pub late_joins: Vec<LateJoinPlan>,
    /// Explicit straggler delays.
    pub grad_delays: Vec<GradDelay>,
    /// Whether the coordinator notices a crash (an [`Event::Detached`],
    /// as a TCP reset would surface). `false` models a silent half-open
    /// loss: the coordinator keeps waiting for the full deadline —
    /// byte-identical timing to a straggler run, which is what the
    /// equivalence suite wants.
    pub detect_crash: bool,
}

impl FaultPlan {
    /// Fault-free plan for `n` workers: clean 1 ms links, no churn.
    pub fn clean(n: usize) -> Self {
        FaultPlan {
            seed: 0,
            to_worker: vec![LinkPlan::clean(); n],
            to_coord: vec![LinkPlan::clean(); n],
            crashes: Vec::new(),
            late_joins: Vec::new(),
            grad_delays: Vec::new(),
            detect_crash: false,
        }
    }

    /// Derives a crash-free chaos plan for `n` workers purely from
    /// `seed`: per-link delay, jitter, drop and duplication rates, and
    /// an optional partition window — all bounded far below the default
    /// deadlines, so the plan perturbs *timing and byte order* without
    /// ever costing a round its report. Crashes are never derived (they
    /// change the result by design); add them with
    /// [`FaultPlan::with_crash`].
    pub fn from_seed(seed: u64, n: usize) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let link = |rng: &mut Prng| {
            let delay_ms = 1 + rng.index(8) as u64;
            let jitter_ms = rng.index(11) as u64;
            let drop = rng.uniform_range(0.0, 0.35);
            let dup = rng.uniform_range(0.0, 0.35);
            let partitions = if rng.bernoulli(0.3) {
                let start = 5 + rng.index(36) as u64;
                let len = 5 + rng.index(26) as u64;
                vec![(start, start + len)]
            } else {
                Vec::new()
            };
            LinkPlan {
                delay_ms,
                jitter_ms,
                drop,
                dup,
                partitions,
            }
        };
        let to_worker = (0..n).map(|_| link(&mut rng)).collect();
        let to_coord = (0..n).map(|_| link(&mut rng)).collect();
        FaultPlan {
            seed,
            to_worker,
            to_coord,
            crashes: Vec::new(),
            late_joins: Vec::new(),
            grad_delays: Vec::new(),
            detect_crash: false,
        }
    }

    /// Adds a crash-and-rejoin schedule.
    pub fn with_crash(mut self, worker: u32, after_step: u32, rejoin_on_step: u32) -> Self {
        self.crashes.push(CrashPlan {
            worker,
            after_step,
            rejoin_on_step,
        });
        self
    }

    /// Adds a fresh mid-run join schedule (see [`LateJoinPlan`]).
    pub fn with_late_join(mut self, worker: u32, on_step: u32) -> Self {
        self.late_joins.push(LateJoinPlan { worker, on_step });
        self
    }

    /// Adds an explicit straggler delay.
    pub fn with_grad_delay(
        mut self,
        worker: u32,
        from_step: u32,
        to_step: u32,
        extra_ms: u64,
    ) -> Self {
        self.grad_delays.push(GradDelay {
            worker,
            from_step,
            to_step,
            extra_ms,
        });
        self
    }

    /// Sets whether crashes surface as [`Event::Detached`].
    pub fn with_detection(mut self, detect: bool) -> Self {
        self.detect_crash = detect;
        self
    }
}

/// A directed link: its plan plus its private draw stream. The draw
/// order per send is fixed — jitter, drop loop, duplication, dup jitter
/// — so a plan's byte-level schedule is a pure function of its seed.
struct ChaosLink {
    plan: LinkPlan,
    rng: Prng,
}

impl ChaosLink {
    /// Delivery times for one frame sent now (+`extra_ms`): the primary
    /// copy and, with probability `dup`, a second one.
    fn times(&mut self, now: u64, extra_ms: u64) -> (u64, Option<u64>) {
        let mut delay =
            self.plan.delay_ms + self.rng.index(self.plan.jitter_ms as usize + 1) as u64;
        let mut tries = 0;
        while tries < MAX_RETRANSMITS && self.rng.bernoulli(self.plan.drop) {
            delay += self.plan.delay_ms + RETRANSMIT_PENALTY_MS;
            tries += 1;
        }
        let dup = if self.rng.bernoulli(self.plan.dup) {
            let extra = 1 + self.rng.index(self.plan.jitter_ms as usize + 1) as u64;
            Some(self.hold(now + extra_ms + delay + extra))
        } else {
            None
        };
        (self.hold(now + extra_ms + delay), dup)
    }

    /// Applies partition windows: a delivery landing inside one is held
    /// until the window closes (cascading through later windows).
    fn hold(&self, mut at: u64) -> u64 {
        for &(start, end) in &self.plan.partitions {
            if at >= start && at < end {
                at = end;
            }
        }
        at
    }
}

/// One queued wire event. Frames are shared: a broadcast's copies and
/// every duplicate point at one buffer.
#[derive(Debug)]
enum Delivery {
    /// A frame travelling worker → coordinator.
    ToCoord { from: u32, frame: Arc<[u8]> },
    /// A frame travelling coordinator → worker.
    ToWorker { to: u32, frame: Arc<[u8]> },
    /// The coordinator's side of a detected crash (the TCP reset
    /// analogue). Only scheduled when the plan detects crashes.
    Detach { worker: u32 },
}

/// A simulated worker: a real [`HonestWorker`] plus the session state
/// its TCP twin keeps (`worker.rs`), with a pending-step buffer in place
/// of TCP's ordering guarantee.
struct SimWorker {
    hw: HonestWorker,
    /// `false` between a crash and its rejoin: deliveries are discarded
    /// (they were on the dead wire) and nothing is sent.
    alive: bool,
    /// `0` = warmup not yet answered; `t ≥ 1` = first uncomputed step.
    next_slot: u32,
    /// Broadcast steps received ahead of the cursor (non-FIFO links
    /// reorder; the worker computes strictly in step order).
    pending: BTreeMap<u32, Arc<[u8]>>,
    /// The step computed at broadcast time whose `GRAD` frame waits in
    /// `grad_frame` for that step's `STEP` to be delivered.
    precomputed: Option<u32>,
    crash_after: Option<u32>,
    rejoin_on: Option<u32>,
    /// `Some(step)` until this worker's `JOIN_FRESH` fires (on the
    /// broadcast of `step`, or warmup for `0`).
    join_fresh_on: Option<u32>,
    /// A fresh mid-run joiner anchors its slot cursor on the first
    /// replayed `STEP` instead of requiring `WARMUP` first.
    fresh_join: bool,
    params: Vector,
    out: WorkerOutput,
    sub_frame: BytesMut,
    pre_frame: BytesMut,
    grad_frame: BytesMut,
}

impl SimWorker {
    /// Whether this worker can compute `step` the moment it is broadcast:
    /// alive, attached (so a copy is on its way), its cursor at `step` and
    /// nothing buffered ahead of it.
    fn ready(&self, attached: bool, step: u32) -> bool {
        attached && self.alive && self.next_slot == step && self.pending.is_empty()
    }

    /// Computes `step` on `params` and builds its `GRAD` frame into
    /// `grad_frame` — the only compute path, at broadcast time or on
    /// delivery alike.
    fn compute_step(&mut self, params: &Vector, step: u32, batch: u32) {
        let id = self.hw.id();
        self.hw.compute_into(params, batch as usize, &mut self.out);
        GradientMessage::encode_frame(id, step, &self.out.submitted, &mut self.sub_frame);
        GradientMessage::encode_frame(id, step, &self.out.pre_noise, &mut self.pre_frame);
        begin_frame(&mut self.grad_frame, KIND_GRAD);
        self.grad_frame.put_f64_le(self.out.batch_loss);
        self.grad_frame.put_u32_le(self.sub_frame.len() as u32);
        self.grad_frame.put_slice(&self.sub_frame);
        self.grad_frame.put_slice(&self.pre_frame);
        end_frame(&mut self.grad_frame);
    }
}

/// Computes `step` for every ready worker of one share of the fleet.
fn compute_share(
    workers: &mut [SimWorker],
    attached: &[bool],
    params: &Vector,
    step: u32,
    batch: u32,
) {
    for (w, &att) in workers.iter_mut().zip(attached) {
        if w.ready(att, step) {
            w.compute_step(params, step, batch);
            w.precomputed = Some(step);
        }
    }
}

/// The in-memory chaos [`Transport`]: a virtual clock, a deterministic
/// delivery queue, the simulated workers, and the same coordinator-side
/// receive guards (dedup, resume ring, session tokens) the TCP
/// transport uses. See the module docs for the model.
pub struct SimNet {
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), Delivery>,
    links_to_worker: Vec<ChaosLink>,
    links_to_coord: Vec<ChaosLink>,
    workers: Vec<SimWorker>,
    detect_crash: bool,
    grad_delays: Vec<GradDelay>,
    compute_ms: u64,
    // Coordinator-side session state (mirrors `TcpTransport`).
    run_seed: u64,
    attached: Vec<bool>,
    ever_joined: Vec<bool>,
    guard: GradGuard,
    /// One buffered ahead-of-round `GRAD` per worker, admitted once the
    /// round advances to its step — the sim twin of the TCP
    /// coordinator's future-frame buffer.
    future_pending: Vec<Option<Vec<u8>>>,
    ring: ResumeRing,
    send: BytesMut,
    step_msg: BytesMut,
    /// The current broadcast's parameters, decoded once for every ready
    /// worker.
    step_params: Vector,
    /// Threads a broadcast's ready workers may be split across.
    width: usize,
    /// Broadcasts whose ready workers were split across threads.
    #[cfg(test)]
    fanned_rounds: u32,
}

impl SimNet {
    /// Builds the simulator: one link pair and one simulated worker per
    /// honest worker, fault schedules from `plan`, every worker's `JOIN`
    /// queued at `t = 0`. `run_seed` is the training seed (session
    /// tokens derive from it); the chaos draws derive from `plan.seed`
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different worker count — a
    /// driver bug, not a run-time condition.
    pub fn new(
        workers: Vec<HonestWorker>,
        plan: &FaultPlan,
        run_seed: u64,
        compute_ms: u64,
        resume_window: usize,
        staleness_window: u32,
    ) -> Self {
        let n = workers.len();
        assert_eq!(plan.to_worker.len(), n, "plan/worker count mismatch");
        assert_eq!(plan.to_coord.len(), n, "plan/worker count mismatch");
        let mut chaos_rng = Prng::seed_from_u64(plan.seed);
        let mut links = |plans: &[LinkPlan], stream: u64| -> Vec<ChaosLink> {
            plans
                .iter()
                .enumerate()
                .map(|(i, p)| ChaosLink {
                    plan: p.clone(),
                    rng: chaos_rng.derive(stream.wrapping_mul(1000) + i as u64),
                })
                .collect()
        };
        let links_to_worker = links(&plan.to_worker, 1);
        let links_to_coord = links(&plan.to_coord, 2);
        let sim_workers: Vec<SimWorker> = workers
            .into_iter()
            .map(|hw| {
                let id = hw.id();
                let crash = plan.crashes.iter().find(|c| c.worker == id);
                let late = plan.late_joins.iter().find(|j| j.worker == id);
                SimWorker {
                    hw,
                    alive: true,
                    next_slot: 0,
                    pending: BTreeMap::new(),
                    precomputed: None,
                    crash_after: crash.map(|c| c.after_step),
                    rejoin_on: crash.map(|c| c.rejoin_on_step),
                    join_fresh_on: late.map(|j| j.on_step),
                    fresh_join: late.is_some(),
                    params: Vector::default(),
                    out: WorkerOutput::default(),
                    sub_frame: BytesMut::with_capacity(1024),
                    pre_frame: BytesMut::with_capacity(1024),
                    grad_frame: BytesMut::with_capacity(1024),
                }
            })
            .collect();
        let mut net = SimNet {
            now: 0,
            seq: 0,
            queue: BTreeMap::new(),
            links_to_worker,
            links_to_coord,
            workers: sim_workers,
            detect_crash: plan.detect_crash,
            grad_delays: plan.grad_delays.clone(),
            compute_ms,
            run_seed,
            attached: vec![false; n],
            ever_joined: vec![false; n],
            guard: GradGuard::with_window(n, staleness_window),
            future_pending: (0..n).map(|_| None).collect(),
            ring: ResumeRing::new(resume_window),
            send: BytesMut::with_capacity(4096),
            step_msg: BytesMut::with_capacity(4096),
            step_params: Vector::default(),
            width: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            #[cfg(test)]
            fanned_rounds: 0,
        };
        for id in 0..n as u32 {
            // Late joiners sit out the join phase entirely; their
            // JOIN_FRESH fires on the scheduled broadcast instead.
            if net.workers[id as usize].fresh_join {
                continue;
            }
            let mut join = BytesMut::with_capacity(16);
            begin_frame(&mut join, KIND_JOIN);
            join.put_u32_le(id);
            end_frame(&mut join);
            let idx = id as usize;
            Self::send_frame(
                &mut net.queue,
                &mut net.seq,
                &mut net.links_to_coord[idx],
                net.now,
                0,
                Arc::from(&join[..]),
                |frame| Delivery::ToCoord { from: id, frame },
            );
        }
        net
    }

    /// Schedules a frame through a chaos link (primary copy plus any
    /// duplicate), as an associated function so callers can split
    /// borrows across `self`'s fields.
    fn send_frame(
        queue: &mut BTreeMap<(u64, u64), Delivery>,
        seq: &mut u64,
        link: &mut ChaosLink,
        now: u64,
        extra_ms: u64,
        frame: Arc<[u8]>,
        build: impl Fn(Arc<[u8]>) -> Delivery,
    ) {
        let (at, dup_at) = link.times(now, extra_ms);
        queue.insert((at, *seq), build(Arc::clone(&frame)));
        *seq += 1;
        if let Some(at) = dup_at {
            queue.insert((at, *seq), build(frame));
            *seq += 1;
        }
    }

    /// Broadcasts the frame staged in `self.send` to every attached
    /// worker, each copy through that worker's own chaos link.
    fn broadcast(&mut self) {
        let frame: Arc<[u8]> = Arc::from(&self.send[..]);
        for idx in 0..self.links_to_worker.len() {
            if !self.attached.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let to = idx as u32;
            Self::send_frame(
                &mut self.queue,
                &mut self.seq,
                &mut self.links_to_worker[idx],
                self.now,
                0,
                Arc::clone(&frame),
                |frame| Delivery::ToWorker { to, frame },
            );
        }
    }

    /// Computes `step` for every ready worker the moment its `STEP`
    /// (staged in `self.send`) goes out, from one decode of the frame;
    /// from [`FANOUT_MIN_DIM`] up, across up to `width` threads, the
    /// calling thread taking one share. Their deliveries then only send
    /// the built `GRAD` frames (see the module docs for why this is
    /// invisible to the run).
    fn precompute(&mut self, step: u32) {
        let ready = self
            .workers
            .iter()
            .zip(&self.attached)
            .filter(|&(w, &att)| w.ready(att, step))
            .count();
        if ready == 0 {
            return;
        }
        let payload = self.send.get(5..).unwrap_or_default();
        let Ok((_, batch)) = StepMessage::decode_into(payload, &mut self.step_params) else {
            return; // locally built frames never fail; workers compute on delivery
        };
        let params = &self.step_params;
        let width = if params.dim() >= FANOUT_MIN_DIM {
            self.width.min(ready)
        } else {
            1
        };
        // lint:begin(zero-copy)
        // Every broadcast passes through here: the fleet is split into
        // contiguous shares in place, with no per-round collection.
        if width <= 1 {
            compute_share(&mut self.workers, &self.attached, params, step, batch);
            return;
        }
        let share = self.workers.len().div_ceil(width);
        let mut shares = self
            .workers
            .chunks_mut(share)
            .zip(self.attached.chunks(share));
        std::thread::scope(|scope| {
            let own = shares.next();
            for (workers, attached) in shares {
                scope.spawn(move || compute_share(workers, attached, params, step, batch));
            }
            if let Some((workers, attached)) = own {
                compute_share(workers, attached, params, step, batch);
            }
        });
        // lint:end(zero-copy)
        #[cfg(test)]
        {
            self.fanned_rounds += 1;
        }
    }

    /// The worker-side receive path for one delivered frame — the sim
    /// twin of `run_worker`'s loop, with the pending buffer restoring
    /// step order over the non-FIFO links.
    fn worker_receive(&mut self, idx: usize, frame: Arc<[u8]>) {
        let Some(&kind) = frame.get(4) else { return };
        let w = &mut self.workers[idx];
        if !w.alive {
            return; // the wire it was on is dead
        }
        match kind {
            KIND_WARMUP => {
                if w.next_slot == 0 {
                    w.next_slot = 1;
                }
                // A duplicated WARMUP re-READYs; the machine dedups.
                let id = w.hw.id();
                let mut ready = BytesMut::with_capacity(16);
                begin_frame(&mut ready, KIND_READY);
                ready.put_u32_le(id);
                end_frame(&mut ready);
                Self::send_frame(
                    &mut self.queue,
                    &mut self.seq,
                    &mut self.links_to_coord[idx],
                    self.now,
                    0,
                    Arc::from(&ready[..]),
                    |frame| Delivery::ToCoord { from: id, frame },
                );
                self.drain_pending(idx);
            }
            KIND_STEP => {
                let payload = frame.get(5..).unwrap_or_default();
                let Ok(step) = read_array(payload, 0).map(u32::from_le_bytes) else {
                    return;
                };
                if w.fresh_join && w.next_slot == 0 {
                    // A fresh mid-run joiner skips warmup: the first
                    // replayed STEP carries the model snapshot and
                    // anchors the slot cursor.
                    w.next_slot = step.max(1);
                }
                if step >= w.next_slot.max(1) {
                    w.pending.entry(step).or_insert(frame);
                }
                // Stale copies (step < next_slot) are settled history:
                // eventual delivery means the original report already
                // made it out, so no retransmission is needed.
                self.drain_pending(idx);
            }
            KIND_DONE | KIND_ABORT => {
                // Session over; nothing to send back.
            }
            _ => {}
        }
    }

    /// Sends every buffered step the cursor has reached, in order, one
    /// `GRAD` per step — computing those not already computed at
    /// broadcast time, and honouring the crash plan.
    fn drain_pending(&mut self, idx: usize) {
        loop {
            let w = &mut self.workers[idx];
            if w.next_slot == 0 || !w.alive {
                return;
            }
            let Some(frame) = w.pending.remove(&w.next_slot) else {
                return;
            };
            let step = if w.precomputed == Some(w.next_slot) {
                // Computed from these very bytes at broadcast time (ring
                // replays are byte-identical): the peeked step header is
                // all that is read.
                w.precomputed = None;
                w.next_slot
            } else {
                let payload = frame.get(5..).unwrap_or_default();
                let Ok((step, batch)) = StepMessage::decode_into(payload, &mut w.params) else {
                    return; // locally built frames never fail; belt and braces
                };
                let params = std::mem::take(&mut w.params);
                w.compute_step(&params, step, batch);
                w.params = params;
                step
            };
            w.next_slot = step + 1;
            let id = w.hw.id();
            let straggle: u64 = self
                .grad_delays
                .iter()
                .filter(|d| d.worker == id && d.from_step <= step && step <= d.to_step)
                .map(|d| d.extra_ms)
                .sum();
            let crash_now = w.crash_after == Some(step);
            Self::send_frame(
                &mut self.queue,
                &mut self.seq,
                &mut self.links_to_coord[idx],
                self.now,
                self.compute_ms + straggle,
                Arc::from(&self.workers[idx].grad_frame[..]),
                |frame| Delivery::ToCoord { from: id, frame },
            );
            if crash_now {
                self.workers[idx].alive = false;
                if self.detect_crash {
                    // The reset travels the wire like any frame, minus
                    // chaos draws (a reset is not retransmitted).
                    let at = self.now + self.links_to_coord[idx].plan.delay_ms;
                    self.queue
                        .insert((at, self.seq), Delivery::Detach { worker: id });
                    self.seq += 1;
                }
                return;
            }
        }
    }

    /// Fires scheduled `JOIN_FRESH` handshakes whose trigger broadcast
    /// (`0` = warmup) just went out.
    fn fire_late_joins(&mut self, trigger: u32) {
        for idx in 0..self.workers.len() {
            let w = &mut self.workers[idx];
            if w.join_fresh_on != Some(trigger) {
                continue;
            }
            w.join_fresh_on = None;
            let id = w.hw.id();
            let mut join = BytesMut::with_capacity(16);
            begin_frame(&mut join, KIND_JOIN_FRESH);
            join.put_u32_le(id);
            end_frame(&mut join);
            Self::send_frame(
                &mut self.queue,
                &mut self.seq,
                &mut self.links_to_coord[idx],
                self.now,
                0,
                Arc::from(&join[..]),
                |frame| Delivery::ToCoord { from: id, frame },
            );
        }
    }

    /// The coordinator-side receive path for one delivered frame — the
    /// sim twin of `TcpTransport::poll`'s drain loop, guards included.
    fn coord_receive(
        &mut self,
        from: u32,
        frame: &[u8],
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) {
        let idx = from as usize;
        let Some(&kind) = frame.get(4) else { return };
        let payload = frame.get(5..).unwrap_or_default();
        match kind {
            KIND_JOIN if phase == Phase::WaitingForWorkers => {
                if let (Some(att), Some(known)) =
                    (self.attached.get_mut(idx), self.ever_joined.get_mut(idx))
                {
                    *att = true;
                    *known = true;
                    events.push(Event::Joined(from));
                }
            }
            KIND_JOIN_FRESH if payload.len() == 4 => {
                let Ok(id) = read_array(payload, 0).map(u32::from_le_bytes) else {
                    return;
                };
                if id != from || self.attached.get(idx).copied().unwrap_or(true) {
                    return; // misattributed, out of range, or already attached
                }
                if phase == Phase::WaitingForWorkers {
                    // The join phase is still open: a fresh join is an
                    // ordinary join that arrived by the other verb.
                    if let Some(known) = self.ever_joined.get_mut(idx) {
                        self.attached[idx] = true;
                        *known = true;
                        events.push(Event::Joined(from));
                    }
                    return;
                }
                if self.ever_joined.get(idx).copied().unwrap_or(true) {
                    return; // fresh joins are for never-joined slots only
                }
                // Replay from the in-flight step (or the whole ring
                // during warmup): the first replayed STEP carries the
                // current model snapshot, which is all the state a
                // fresh worker needs.
                let start = match phase {
                    Phase::Warmup => 0,
                    _ => current_step(phase),
                };
                let mut replayed: Vec<Arc<[u8]>> = Vec::new();
                match self.ring.replay_from(start) {
                    Some(frames) => replayed.extend(frames.map(Arc::from)),
                    None => return, // snapshot already evicted
                }
                for frame in replayed {
                    Self::send_frame(
                        &mut self.queue,
                        &mut self.seq,
                        &mut self.links_to_worker[idx],
                        self.now,
                        0,
                        frame,
                        |frame| Delivery::ToWorker { to: from, frame },
                    );
                }
                self.attached[idx] = true;
                if let Some(known) = self.ever_joined.get_mut(idx) {
                    *known = true;
                }
                events.push(Event::JoinedFresh(from));
            }
            KIND_REJOIN if payload.len() == 16 => {
                let (Ok(id), Ok(token), Ok(next_slot)) = (
                    read_array(payload, 0).map(u32::from_le_bytes),
                    read_array(payload, 4).map(u64::from_le_bytes),
                    read_array(payload, 12).map(u32::from_le_bytes),
                ) else {
                    return;
                };
                let known = self.ever_joined.get(idx).copied().unwrap_or(false);
                if id != from || !known || token != session_token(self.run_seed, id) {
                    return; // unknown slot or bad token: dropped
                }
                // Replay the missed broadcasts through the (faulty)
                // link; the worker's pending buffer restores order.
                let mut replayed: Vec<Arc<[u8]>> = Vec::new();
                match self.ring.replay_from(next_slot) {
                    Some(frames) => replayed.extend(frames.map(Arc::from)),
                    None => return, // too far behind to resume
                }
                for frame in replayed {
                    Self::send_frame(
                        &mut self.queue,
                        &mut self.seq,
                        &mut self.links_to_worker[idx],
                        self.now,
                        0,
                        frame,
                        |frame| Delivery::ToWorker { to: from, frame },
                    );
                }
                if let Some(att) = self.attached.get_mut(idx) {
                    *att = true;
                }
                events.push(Event::Reattached(from));
            }
            KIND_READY if self.attached.get(idx).copied().unwrap_or(false) => {
                events.push(Event::Ready(from));
            }
            KIND_GRAD if self.attached.get(idx).copied().unwrap_or(false) => {
                let Some(out) = outputs.get_mut(idx) else {
                    return;
                };
                let current = current_step(phase);
                // lint:begin(zero-copy)
                // The chaos hot loop: every queued GRAD passes through
                // here, so the frame is peeked, admitted, and decoded
                // straight into the recycled output slot — no copies on
                // the fresh path (only ahead-of-round frames buffer).
                if let Ok((wid, step)) = peek_grad(payload) {
                    if wid == from {
                        match self.guard.admit(wid, step, current) {
                            Admission::Fresh => {
                                if let Ok(step) = decode_grad(payload, wid, out) {
                                    events.push(Event::Gradient { id: wid, step });
                                }
                            }
                            Admission::Stale => events.push(Event::StaleGradient(wid)),
                            Admission::Future => {
                                // One pending frame per worker: a
                                // worker computes strictly in order, so
                                // a newer future frame supersedes.
                                if let Some(pending) = self.future_pending.get_mut(idx) {
                                    *pending = Some(payload.to_vec()); // lint:allow(zero-copy-alloc, reason = "cold path: at most one buffered ahead-of-round frame per worker, off the per-round fresh path")
                                }
                            }
                            Admission::Duplicate => {}
                        }
                    }
                }
                // lint:end(zero-copy)
            }
            _ => {}
        }
    }
}

impl Transport for SimNet {
    fn now_ms(&mut self) -> u64 {
        self.now
    }

    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        let mut progressed = false;
        // Flush buffered ahead-of-round frames first: once the round
        // advances to a pending frame's step it is admitted exactly as
        // if it had just arrived (the TCP coordinator does the same).
        let current = current_step(phase);
        for idx in 0..self.future_pending.len() {
            let Some(payload) = self.future_pending[idx].take() else {
                continue;
            };
            let Ok((wid, step)) = peek_grad(&payload) else {
                continue;
            };
            if wid != idx as u32 {
                continue; // misattributed: discard
            }
            if step > current {
                self.future_pending[idx] = Some(payload);
                continue;
            }
            match self.guard.admit(wid, step, current) {
                Admission::Fresh => {
                    if let Some(out) = outputs.get_mut(idx) {
                        if let Ok(step) = decode_grad(&payload, wid, out) {
                            events.push(Event::Gradient { id: wid, step });
                            progressed = true;
                        }
                    }
                }
                Admission::Stale => {
                    events.push(Event::StaleGradient(wid));
                    progressed = true;
                }
                Admission::Duplicate | Admission::Future => {}
            }
        }
        loop {
            let due = self
                .queue
                .first_key_value()
                .map(|(&(at, _), _)| at <= self.now)
                .unwrap_or(false);
            if !due {
                break;
            }
            let Some((_, delivery)) = self.queue.pop_first() else {
                break;
            };
            progressed = true;
            match delivery {
                Delivery::ToCoord { from, frame } => {
                    self.coord_receive(from, &frame, phase, outputs, events);
                }
                Delivery::ToWorker { to, frame } => {
                    self.worker_receive(to as usize, frame);
                }
                Delivery::Detach { worker } => {
                    if let Some(att) = self.attached.get_mut(worker as usize) {
                        *att = false;
                    }
                    events.push(Event::Detached(worker));
                }
            }
        }
        Ok(progressed)
    }

    fn start_warmup(&mut self) {
        begin_frame(&mut self.send, KIND_WARMUP);
        end_frame(&mut self.send);
        self.ring.push(0, &self.send);
        self.broadcast();
        self.fire_late_joins(0);
    }

    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        StepMessage::encode_frame(step, batch, params, &mut self.step_msg);
        begin_frame(&mut self.send, KIND_STEP);
        self.send.put_slice(&self.step_msg);
        end_frame(&mut self.send);
        self.ring.push(step, &self.send);
        self.broadcast();
        self.precompute(step);
        self.fire_late_joins(step);
        // Rejoin schedules fire on broadcasts: a dead worker whose
        // trigger step just went out revives and starts its handshake.
        for idx in 0..self.workers.len() {
            let w = &mut self.workers[idx];
            if !w.alive && w.rejoin_on == Some(step) {
                w.alive = true;
                w.rejoin_on = None;
                let id = w.hw.id();
                let next_slot = w.next_slot;
                let mut rejoin = BytesMut::with_capacity(32);
                begin_frame(&mut rejoin, KIND_REJOIN);
                rejoin.put_u32_le(id);
                rejoin.put_u64_le(session_token(self.run_seed, id));
                rejoin.put_u32_le(next_slot);
                end_frame(&mut rejoin);
                Self::send_frame(
                    &mut self.queue,
                    &mut self.seq,
                    &mut self.links_to_coord[idx],
                    self.now,
                    0,
                    Arc::from(&rejoin[..]),
                    |frame| Delivery::ToCoord { from: id, frame },
                );
            }
        }
    }

    fn finish(&mut self) {
        begin_frame(&mut self.send, KIND_DONE);
        end_frame(&mut self.send);
        self.broadcast();
    }

    fn abort(&mut self, reason: &str) {
        begin_frame(&mut self.send, KIND_ABORT);
        self.send.put_slice(reason.as_bytes());
        end_frame(&mut self.send);
        self.broadcast();
    }

    fn idle(&mut self, next_deadline_ms: Option<u64>) {
        let next_event = self.queue.keys().next().map(|&(at, _)| at);
        let target = match (next_event, next_deadline_ms) {
            (Some(event), Some(deadline)) => event.min(deadline),
            (Some(event), None) => event,
            (None, Some(deadline)) => deadline,
            // Done/Aborted with a drained queue: `drive` exits before
            // idling again, but never let the clock stall regardless.
            (None, None) => self.now + 1,
        };
        self.now = if target > self.now {
            target
        } else {
            self.now + 1
        };
    }
}

/// The `"sim"` deployment backend: the full round protocol over
/// [`SimNet`]. Spec parameters (all optional):
///
/// * `chaos` — fault-plan seed ([`FaultPlan::from_seed`]); absent means
///   clean links;
/// * `min_workers` / `quorum` — as the `"tcp"` backend;
/// * `join_timeout_ms` / `warmup_timeout_ms` / `step_timeout_ms` —
///   phase deadlines in *virtual* ms (default 10 000 each);
/// * `compute_ms` — virtual cost of one gradient computation (default
///   2);
/// * `resume_window` — broadcast frames retained for rejoin replay
///   (default 32).
pub struct SimBackend {
    chaos: Option<u64>,
    min_workers: Option<usize>,
    quorum: Option<usize>,
    join_timeout_ms: u64,
    warmup_timeout_ms: u64,
    step_timeout_ms: u64,
    compute_ms: u64,
    resume_window: usize,
}

impl SimBackend {
    /// Reads deployment knobs from a backend spec (see the type docs for
    /// the parameter list).
    pub fn from_spec(spec: &ComponentSpec) -> Self {
        SimBackend {
            chaos: spec.u64("chaos"),
            min_workers: spec.u64("min_workers").map(|v| v as usize),
            quorum: spec.u64("quorum").map(|v| v as usize),
            join_timeout_ms: spec.u64("join_timeout_ms").unwrap_or(10_000),
            warmup_timeout_ms: spec.u64("warmup_timeout_ms").unwrap_or(10_000),
            step_timeout_ms: spec.u64("step_timeout_ms").unwrap_or(10_000),
            compute_ms: spec.u64("compute_ms").unwrap_or(2),
            resume_window: spec.u64("resume_window").unwrap_or(32) as usize,
        }
    }

    /// Runs one experiment over an explicit [`FaultPlan`] — the entry
    /// point the chaos and reconnect suites use for plans that spec
    /// parameters cannot express (crash and straggler schedules).
    ///
    /// # Errors
    ///
    /// As [`EngineBackend::run`].
    pub fn run_with_plan(
        &self,
        exp: &Experiment,
        seed: u64,
        plan: &FaultPlan,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let (mut net, core, machine_cfg) = self.assemble(exp, seed, plan, observer, scratch)?;
        drive(&mut net, core, machine_cfg, seed, scratch).map_err(|e| match e {
            CoordinatorError::Gar(g) => PipelineError::Gar(g),
            other => PipelineError::Spec(format!("sim backend: {other}")),
        })
    }

    /// Builds the simulator, the coordinator's core and its machine
    /// configuration for one run over `plan`, ready to [`drive`].
    fn assemble(
        &self,
        exp: &Experiment,
        seed: u64,
        plan: &FaultPlan,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<(SimNet, ServerCore, MachineConfig), PipelineError> {
        let (n_honest, min_workers, quorum) =
            crate::backend::resolve_deployment("sim", exp, self.min_workers, self.quorum)?;
        if plan.to_worker.len() != n_honest {
            return Err(PipelineError::Spec(format!(
                "sim backend: fault plan covers {} workers, run has {n_honest}",
                plan.to_worker.len()
            )));
        }
        let mut trainer = exp.build_trainer()?;
        if let Some(observer) = observer {
            trainer = trainer.observer(observer);
        }
        let (core, workers) = trainer.into_distributed_parts(seed, scratch);
        let staleness_window = core.config().staleness_window;
        let machine_cfg = MachineConfig {
            n_workers: n_honest,
            min_workers,
            quorum,
            steps: core.config().steps,
            join_deadline_ms: self.join_timeout_ms,
            warmup_deadline_ms: self.warmup_timeout_ms,
            step_deadline_ms: self.step_timeout_ms,
            staleness_window,
        };
        let net = SimNet::new(
            workers,
            plan,
            seed,
            self.compute_ms,
            self.resume_window,
            staleness_window,
        );
        Ok((net, core, machine_cfg))
    }
}

impl EngineBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let n_honest = if exp.attack.is_some() {
            exp.config.n_honest()
        } else {
            exp.config.n_workers
        };
        let plan = match self.chaos {
            Some(chaos_seed) => FaultPlan::from_seed(chaos_seed, n_honest),
            None => FaultPlan::clean(n_honest),
        };
        self.run_with_plan(exp, seed, &plan, observer, scratch)
    }
}

/// Registers the `"sim"` backend. Idempotent — safe to call from every
/// binary and test that might race another `install`.
pub fn install() {
    match register_backend("sim", |spec| {
        Ok(Arc::new(SimBackend::from_spec(spec)) as Arc<dyn EngineBackend>)
    }) {
        Ok(()) | Err(RegistryError::DuplicateId(_)) => {}
        Err(e) => unreachable!("sim backend registration failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_dp::PrivacyBudget;

    const STEPS: u32 = 5;

    /// Theorem 1 mean estimation at dimension `dim` with the large-d
    /// benchmark's ALIE-vs-median cell: 6 honest workers, DP noise on.
    fn theorem1(dim: usize) -> Experiment {
        let budget = PrivacyBudget::new(0.2, 1e-6).unwrap();
        let mut exp = Experiment::theorem1(dim, 1.0, Some(budget), STEPS, 1, 11).unwrap();
        exp.attack = Some(ComponentSpec::new("alie"));
        exp.gar = ComponentSpec::new("median");
        exp.config.n_byzantine = 5;
        exp
    }

    /// One run over `plan` with the fan-out width pinned to `width`;
    /// returns the history and the number of fanned-out broadcasts.
    fn run_at_width(
        backend: &SimBackend,
        exp: &Experiment,
        plan: &FaultPlan,
        width: usize,
    ) -> (RunHistory, u32) {
        let seed = 23;
        let mut scratch = RunScratch::new();
        let (mut net, core, cfg) = backend
            .assemble(exp, seed, plan, None, &mut scratch)
            .unwrap();
        net.width = width;
        let history = drive(&mut net, core, cfg, seed, &mut scratch).unwrap();
        (history, net.fanned_rounds)
    }

    /// Splitting the ready workers across threads is invisible to the
    /// run: under seeded chaos and under a crash-and-rejoin schedule
    /// (whose replays compute on delivery), every width reproduces the
    /// serial history bit for bit.
    #[test]
    fn every_fanout_width_reproduces_the_serial_history() {
        let exp = theorem1(FANOUT_MIN_DIM);
        let n = exp.config.n_honest();
        let backend =
            SimBackend::from_spec(&ComponentSpec::new("sim").with("quorum", (n - 1) as u64));
        let plans = [
            FaultPlan::from_seed(5, n),
            FaultPlan::from_seed(8, n).with_crash(n as u32 - 1, 1, 3),
        ];
        for (p, plan) in plans.iter().enumerate() {
            let (serial, fanned) = run_at_width(&backend, &exp, plan, 1);
            assert_eq!(fanned, 0, "plan {p}: width 1 must stay serial");
            assert_eq!(
                serial.churn.dropped_rounds[n - 1] > 0,
                p == 1,
                "plan {p}: only the crash plan drops rounds"
            );
            for width in [2, 3, 6] {
                let (history, fanned) = run_at_width(&backend, &exp, plan, width);
                assert!(fanned > 0, "plan {p}, width {width}: never fanned out");
                assert_eq!(history, serial, "plan {p}, width {width}: diverged");
            }
        }
    }

    /// The fan-out engages exactly from the crossover dimension: every
    /// crash-free broadcast has all six workers ready, so each one fans
    /// out at `FANOUT_MIN_DIM` and none does one coordinate below it.
    #[test]
    fn fanout_engages_from_the_crossover_dimension() {
        let backend = SimBackend::from_spec(&ComponentSpec::new("sim"));
        for (dim, expected) in [(FANOUT_MIN_DIM, STEPS), (FANOUT_MIN_DIM - 1, 0)] {
            let exp = theorem1(dim);
            let plan = FaultPlan::from_seed(3, exp.config.n_honest());
            let (_, fanned) = run_at_width(&backend, &exp, &plan, 2);
            assert_eq!(fanned, expected, "d = {dim}");
        }
    }

    /// A worker whose step-2 `STEP` is held in a partition past the
    /// round-2 deadline is still behind when step 3 goes out, so it must
    /// not compute step 3 at broadcast time: it computes both steps on
    /// delivery, in order. Its step-2 report then misses its round, which
    /// is exactly a straggler whose step-2 report arrives late.
    #[test]
    fn a_worker_behind_the_broadcast_computes_on_delivery() {
        let exp = theorem1(FANOUT_MIN_DIM);
        let n = exp.config.n_honest();
        let w = n - 1;
        let backend =
            SimBackend::from_spec(&ComponentSpec::new("sim").with("quorum", (n - 1) as u64));
        let straggler_plan = FaultPlan::clean(n).with_grad_delay(w as u32, 2, 2, 20_000);
        let (straggler, _) = run_at_width(&backend, &exp, &straggler_plan, 2);
        let mut held_plan = FaultPlan::clean(n);
        held_plan.to_worker[w].partitions = vec![(6, 12_000)];
        let (held, fanned) = run_at_width(&backend, &exp, &held_plan, 2);
        assert_eq!(held.churn.dropped_rounds[w], 1, "only round 2 is missed");
        assert_eq!(fanned, STEPS, "the other workers still fan out");
        assert_eq!(held, straggler);
    }

    #[test]
    fn fault_plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::from_seed(7, 4);
        let b = FaultPlan::from_seed(7, 4);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::from_seed(8, 4);
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.crashes.is_empty(), "derived plans never crash workers");
    }

    #[test]
    fn derived_chaos_stays_far_below_the_deadlines() {
        for seed in 0..32 {
            let plan = FaultPlan::from_seed(seed, 6);
            for link in plan.to_worker.iter().chain(plan.to_coord.iter()) {
                // Worst case: max jitter + every retransmission + the
                // longest partition hold.
                let worst = link.delay_ms
                    + link.jitter_ms
                    + u64::from(MAX_RETRANSMITS) * (link.delay_ms + RETRANSMIT_PENALTY_MS)
                    + link
                        .partitions
                        .iter()
                        .map(|&(s, e)| e - s)
                        .max()
                        .unwrap_or(0);
                assert!(
                    worst < 1_000,
                    "seed {seed}: worst-case one-way delay {worst} ms \
                     endangers the 10 s default deadline"
                );
            }
        }
    }

    #[test]
    fn chaos_links_draw_deterministic_schedules() {
        let plan = FaultPlan::from_seed(3, 2);
        let mk = || {
            let mut rng = Prng::seed_from_u64(plan.seed);
            ChaosLink {
                plan: plan.to_coord[0].clone(),
                rng: rng.derive(2000),
            }
        };
        let (mut a, mut b) = (mk(), mk());
        for send in 0..100u64 {
            assert_eq!(
                a.times(send * 3, 0),
                b.times(send * 3, 0),
                "send {send} diverged"
            );
        }
    }

    #[test]
    fn partition_windows_hold_deliveries_until_they_close() {
        let link = ChaosLink {
            plan: LinkPlan {
                delay_ms: 1,
                jitter_ms: 0,
                drop: 0.0,
                dup: 0.0,
                partitions: vec![(10, 20), (20, 25)],
            },
            rng: Prng::seed_from_u64(0),
        };
        assert_eq!(link.hold(5), 5, "before the window");
        assert_eq!(link.hold(10), 25, "held, cascading through both windows");
        assert_eq!(link.hold(19), 25);
        assert_eq!(link.hold(26), 26, "after the windows");
    }
}
