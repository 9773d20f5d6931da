//! The TCP [`Transport`]: a single-threaded nonblocking socket loop
//! behind the generic [`drive`] control flow.
//!
//! Division of labour:
//!
//! * the **machine** decides *when* — joins, warmups, step advances,
//!   straggler drops, aborts — from events and virtual time alone;
//! * the **core** decides *what* — forgeries, fault semantics,
//!   aggregation, the model update — exactly as the sequential engine
//!   drives it, which is what makes the TCP run's history bit-identical;
//! * this transport only moves bytes between the two.
//!
//! Churn handling: a dead socket is **not** permanent. The transport
//! surfaces it as [`Event::Detached`] (the machine keeps the worker
//! joined, zeroing its rounds like a straggler's), keeps accepting
//! connections in every live phase, and lets the worker resume through
//! the [`KIND_REJOIN`] handshake — token check, then a [`ResumeRing`]
//! replay of every missed broadcast so the worker's state catches up
//! exactly as if it had merely straggled. A worker that was *never* in
//! the fleet may attach mid-run via [`KIND_JOIN_FRESH`]: the ring's
//! current `STEP` frame carries the parameters, so the replayed tail is
//! the model-state snapshot, and the machine books the slot as joined and
//! ready from the in-flight round on. Inbound gradient frames pass a
//! [`GradGuard`] before touching an output slot, so duplicated or
//! reordered frames (chaos links, retransmissions after a rejoin) never
//! clobber the current round's report; under a configured
//! `staleness_window` the guard also admits bounded-late frames, whose
//! ages the machine hands the server for `λ^j` damping. A frame tagged
//! one step *ahead* of the round (reordered delivery around a broadcast)
//! is buffered — one slot per worker, latest wins — and admitted when
//! its step arrives instead of killing the connection.
//!
//! The loop is allocation-disciplined: per-connection [`FrameReader`]s,
//! one broadcast scratch [`BytesMut`], the ring's recycled frame
//! buffers, the output slots from the shared [`RunScratch`], and the
//! machine's recycled action/straggler buffers are all reused round
//! after round. The counting-allocator integration test pins the steady
//! state (tolerating only what the OS charges for socket buffering).
//!
//! [`RunScratch`]: dpbyz_server::RunScratch

use crate::machine::{Event, MachineConfig, Phase};
use crate::protocol::{
    begin_frame, decode_grad, elapsed_ms, end_frame, peek_grad, session_token, write_all_frame,
    Admission, FrameReader, GradGuard, KIND_ABORT, KIND_DONE, KIND_GRAD, KIND_JOIN,
    KIND_JOIN_FRESH, KIND_READY, KIND_REJOIN, KIND_STEP, KIND_WARMUP,
};
use crate::transport::{current_step, drive, ResumeRing, Transport};
use bytes::{BufMut, BytesMut};
use dpbyz_server::message::{read_array, StepMessage};
use dpbyz_server::{RunHistory, RunScratch, ServerCore, WorkerOutput};
use dpbyz_tensor::Vector;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

pub use crate::transport::CoordinatorError;

/// Deployment knobs of one coordinated run.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Joins required at the join deadline (and readies at the warmup
    /// deadline); below this the run aborts.
    pub min_workers: usize,
    /// Reports required at a step deadline; at or above this the round
    /// advances and the stragglers are dropped (their submissions zeroed,
    /// the fault-injection semantics), below it the run aborts.
    pub quorum: usize,
    /// Join-phase deadline.
    pub join_timeout: Duration,
    /// Warmup-phase deadline.
    pub warmup_timeout: Duration,
    /// Per-step deadline, measured from the step broadcast.
    pub step_timeout: Duration,
    /// Broadcast frames the [`ResumeRing`] retains for `Rejoin` replay: a
    /// worker more than this many rounds behind cannot resume (it stays
    /// detached, zeroed every round, and the quorum logic owns the
    /// consequences).
    pub resume_window: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            min_workers: 0, // resolved to n_honest by the backend
            quorum: 0,      // resolved likewise
            join_timeout: Duration::from_secs(10),
            warmup_timeout: Duration::from_secs(10),
            step_timeout: Duration::from_secs(10),
            resume_window: 8,
        }
    }
}

/// One joined connection: the socket plus its reassembly buffer.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }
}

/// The TCP parameter server. Bind first (so workers have an address to
/// connect to), then [`TcpCoordinator::run`] one training run over it.
pub struct TcpCoordinator {
    listener: TcpListener,
    cfg: CoordinatorConfig,
}

impl TcpCoordinator {
    /// Binds the listening socket. `127.0.0.1:0` picks a free local port
    /// — read it back with [`TcpCoordinator::local_addr`].
    ///
    /// # Errors
    ///
    /// Socket-level bind failures.
    pub fn bind(addr: impl ToSocketAddrs, cfg: CoordinatorConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpCoordinator { listener, cfg })
    }

    /// The bound address workers must connect to.
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs one training run over the wire: accepts `n_honest` worker
    /// sessions, walks the state machine through
    /// `WaitingForWorkers → Warmup → (Train → Aggregate)* → Done`, and
    /// seals the [`RunHistory`].
    ///
    /// `core` comes from
    /// [`Trainer::into_distributed_parts`](dpbyz_server::Trainer::into_distributed_parts);
    /// buffers recycle through `scratch` exactly as the in-process
    /// engines do.
    ///
    /// # Errors
    ///
    /// See [`CoordinatorError`].
    pub fn run(
        self,
        core: ServerCore,
        n_honest: usize,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, CoordinatorError> {
        let staleness_window = core.config().staleness_window;
        let machine_cfg = MachineConfig {
            n_workers: n_honest,
            min_workers: self.cfg.min_workers,
            quorum: self.cfg.quorum,
            steps: core.config().steps,
            join_deadline_ms: self.cfg.join_timeout.as_millis() as u64,
            warmup_deadline_ms: self.cfg.warmup_timeout.as_millis() as u64,
            step_deadline_ms: self.cfg.step_timeout.as_millis() as u64,
            staleness_window,
        };
        let mut transport = TcpTransport {
            listener: self.listener,
            start: Instant::now(),
            seed,
            conns: (0..n_honest).map(|_| None).collect(),
            pending: Vec::new(),
            ever_joined: vec![false; n_honest],
            guard: GradGuard::with_window(n_honest, staleness_window),
            ring: ResumeRing::new(self.cfg.resume_window),
            send: BytesMut::with_capacity(4096),
            step_msg: BytesMut::with_capacity(4096),
            dead_pending: Vec::new(),
            future_pending: (0..n_honest).map(|_| None).collect(),
        };
        drive(&mut transport, core, machine_cfg, seed, scratch)
    }
}

/// The socket-side state behind [`TcpCoordinator::run`].
struct TcpTransport {
    listener: TcpListener,
    start: Instant,
    seed: u64,
    conns: Vec<Option<Conn>>,
    pending: Vec<Conn>,
    /// Slots that joined at least once — the set `Rejoin` may resume.
    ever_joined: Vec<bool>,
    guard: GradGuard,
    ring: ResumeRing,
    send: BytesMut,
    step_msg: BytesMut,
    /// Connections lost during a broadcast (no events buffer in scope
    /// there): reported as [`Event::Detached`] at the next poll.
    dead_pending: Vec<u32>,
    /// One buffered future-tagged GRAD frame per worker (latest wins),
    /// admitted once its step is broadcast — a frame reordered around a
    /// step broadcast must be retransmitted-in-effect, not dropped with
    /// the connection. Buffers recycle across uses.
    future_pending: Vec<Option<BytesMut>>,
}

impl Transport for TcpTransport {
    fn now_ms(&mut self) -> u64 {
        elapsed_ms(self.start)
    }

    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        let mut progressed = false;
        let current = current_step(phase);

        // Sockets lost mid-broadcast surface here, one poll later.
        for id in self.dead_pending.drain(..) {
            events.push(Event::Detached(id));
            progressed = true;
        }

        // Buffered future-tagged frames: admit any whose step has since
        // been broadcast (the round advanced past them).
        for (id, (pending, out)) in self
            .future_pending
            .iter_mut()
            .zip(outputs.iter_mut())
            .enumerate()
        {
            let Some(buf) = pending.take() else {
                continue;
            };
            match peek_grad(&buf) {
                Ok((wid, step)) if wid == id as u32 => {
                    if step > current {
                        *pending = Some(buf); // still ahead: keep waiting
                        continue;
                    }
                    match self.guard.admit(wid, step, current) {
                        Admission::Fresh => {
                            if let Ok(step) = decode_grad(&buf, wid, out) {
                                events.push(Event::Gradient { id: wid, step });
                                progressed = true;
                            }
                        }
                        Admission::Stale => events.push(Event::StaleGradient(wid)),
                        Admission::Duplicate | Admission::Future => {}
                    }
                }
                // Malformed or misattributed buffer: discarded. The
                // connection already survived the round it arrived in.
                _ => {}
            }
        }

        // Accept connections in every live phase: fresh JOINs only pass
        // the WaitingForWorkers gate below, but a REJOIN is welcome any
        // time a run is in flight.
        if !matches!(phase, Phase::Done | Phase::Aborted) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(conn) = Conn::new(stream) {
                            self.pending.push(conn);
                            progressed = true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }

        // Pending connections speak JOIN or REJOIN first or get dropped.
        let mut i = 0;
        while let Some(candidate) = self.pending.get_mut(i) {
            match poll_join(candidate) {
                JoinPoll::Waiting => i += 1,
                JoinPoll::Dead => {
                    self.pending.swap_remove(i);
                }
                JoinPoll::Joined(id) => {
                    let conn = self.pending.swap_remove(i);
                    let fresh_gate_open = phase == Phase::WaitingForWorkers;
                    match self.conns.get_mut(id as usize) {
                        Some(entry) if entry.is_none() && fresh_gate_open => {
                            *entry = Some(conn);
                            if let Some(flag) = self.ever_joined.get_mut(id as usize) {
                                *flag = true;
                            }
                            events.push(Event::Joined(id));
                            progressed = true;
                        }
                        // Out-of-range, duplicate id, or the join gate
                        // closed: connection dropped. A worker that lost
                        // its socket mid-run resumes via REJOIN, never a
                        // fresh JOIN.
                        _ => {}
                    }
                }
                JoinPoll::JoinedFresh(id) => {
                    let mut conn = self.pending.swap_remove(i);
                    let slot_free = self
                        .conns
                        .get(id as usize)
                        .is_some_and(|entry| entry.is_none());
                    if phase == Phase::WaitingForWorkers {
                        // During the join phase a fresh join is a plain
                        // join.
                        if slot_free {
                            if let Some(entry) = self.conns.get_mut(id as usize) {
                                *entry = Some(conn);
                            }
                            if let Some(flag) = self.ever_joined.get_mut(id as usize) {
                                *flag = true;
                            }
                            events.push(Event::Joined(id));
                            progressed = true;
                        }
                        continue;
                    }
                    // Mid-run only a never-joined slot may attach fresh
                    // (a crashed worker resumes via REJOIN, with its
                    // token, never by re-running the fresh handshake).
                    let never_joined = !self.ever_joined.get(id as usize).copied().unwrap_or(true);
                    if !slot_free || !never_joined {
                        continue;
                    }
                    // The ring tail from the in-flight step is the model
                    // snapshot: STEP frames carry the parameters. During
                    // warmup, replay from the WARMUP frame (slot 0).
                    let start = match phase {
                        Phase::Warmup => 0,
                        _ => current,
                    };
                    let Some(frames) = self.ring.replay_from(start) else {
                        continue; // ring no longer holds the step: dropped
                    };
                    let mut alive = true;
                    for frame in frames {
                        if write_all_frame(&mut conn.stream, frame).is_err() {
                            alive = false;
                            break;
                        }
                    }
                    if alive {
                        if let Some(entry) = self.conns.get_mut(id as usize) {
                            *entry = Some(conn);
                        }
                        if let Some(flag) = self.ever_joined.get_mut(id as usize) {
                            *flag = true;
                        }
                        events.push(Event::JoinedFresh(id));
                        progressed = true;
                    }
                }
                JoinPoll::Rejoin {
                    id,
                    token,
                    next_slot,
                } => {
                    let mut conn = self.pending.swap_remove(i);
                    let known = self.ever_joined.get(id as usize).copied().unwrap_or(false);
                    if !known || token != session_token(self.seed, id) {
                        continue; // unknown slot or bad token: dropped
                    }
                    let Some(frames) = self.ring.replay_from(next_slot) else {
                        continue; // too far behind (or hostile): dropped
                    };
                    let mut alive = true;
                    for frame in frames {
                        if write_all_frame(&mut conn.stream, frame).is_err() {
                            alive = false;
                            break;
                        }
                    }
                    if alive {
                        if let Some(entry) = self.conns.get_mut(id as usize) {
                            // Displace any half-dead predecessor: the
                            // newest connection is the session.
                            *entry = Some(conn);
                            events.push(Event::Reattached(id));
                            progressed = true;
                        }
                    }
                }
            }
        }

        // Drain every attached connection.
        for (id, (slot, out)) in self.conns.iter_mut().zip(outputs.iter_mut()).enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let mut dead = false;
            loop {
                match conn.reader.fill(&mut conn.stream) {
                    Ok(0) => break,
                    Ok(_) => progressed = true,
                    Err(_) => {
                        // EOF or socket error: the quorum/deadline
                        // logic decides what the loss means.
                        dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.reader.next_frame() {
                    Ok(None) => break,
                    Ok(Some((kind, payload))) => match kind {
                        KIND_READY => {
                            events.push(Event::Ready(id as u32));
                        }
                        KIND_GRAD => match peek_grad(payload) {
                            Ok((wid, step)) if wid == id as u32 => {
                                match self.guard.admit(wid, step, current) {
                                    Admission::Fresh => match decode_grad(payload, wid, out) {
                                        Ok(step) => {
                                            events.push(Event::Gradient { id: wid, step });
                                        }
                                        // Malformed or misattributed
                                        // report: the peer is garbage.
                                        Err(_) => {
                                            dead = true;
                                            break;
                                        }
                                    },
                                    // Retransmissions are expected churn
                                    // debris: classified, never decoded.
                                    Admission::Duplicate => {}
                                    // Beyond-window straggler reports are
                                    // dropped but counted, so the churn
                                    // ledger records *why* rounds zeroed.
                                    Admission::Stale => {
                                        events.push(Event::StaleGradient(wid));
                                    }
                                    // A frame one broadcast ahead of the
                                    // round (reordered delivery): buffer
                                    // it — latest wins — and admit it when
                                    // its step arrives.
                                    Admission::Future => {
                                        if let Some(pending) =
                                            self.future_pending.get_mut(wid as usize)
                                        {
                                            let buf = pending.get_or_insert_with(BytesMut::default);
                                            buf.clear();
                                            buf.put_slice(payload);
                                        }
                                    }
                                }
                            }
                            _ => {
                                dead = true;
                                break;
                            }
                        },
                        // A late JOIN/REJOIN/JOIN_FRESH re-send on an
                        // attached connection is harmless; anything else
                        // is a protocol violation.
                        KIND_JOIN | KIND_REJOIN | KIND_JOIN_FRESH => {}
                        _ => {
                            dead = true;
                            break;
                        }
                    },
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                *slot = None;
                events.push(Event::Detached(id as u32));
            }
        }

        Ok(progressed)
    }

    fn start_warmup(&mut self) {
        begin_frame(&mut self.send, KIND_WARMUP);
        end_frame(&mut self.send);
        self.ring.push(0, &self.send);
        broadcast(&mut self.conns, &self.send, &mut self.dead_pending);
    }

    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        StepMessage::encode_frame(step, batch, params, &mut self.step_msg);
        begin_frame(&mut self.send, KIND_STEP);
        self.send.put_slice(&self.step_msg);
        end_frame(&mut self.send);
        self.ring.push(step, &self.send);
        broadcast(&mut self.conns, &self.send, &mut self.dead_pending);
    }

    fn finish(&mut self) {
        begin_frame(&mut self.send, KIND_DONE);
        end_frame(&mut self.send);
        broadcast(&mut self.conns, &self.send, &mut self.dead_pending);
    }

    fn abort(&mut self, reason: &str) {
        begin_frame(&mut self.send, KIND_ABORT);
        self.send.put_slice(reason.as_bytes());
        end_frame(&mut self.send);
        broadcast(&mut self.conns, &self.send, &mut self.dead_pending);
    }

    fn idle(&mut self, _next_deadline_ms: Option<u64>) {
        // Single-core-friendly idle nap: long enough to let the worker
        // threads run, short against the ms deadlines.
        std::thread::sleep(Duration::from_micros(200));
    }
}

enum JoinPoll {
    Waiting,
    Joined(u32),
    JoinedFresh(u32),
    Rejoin { id: u32, token: u64, next_slot: u32 },
    Dead,
}

/// Reads a pending connection until its first frame arrives; anything but
/// a well-formed JOIN, JOIN_FRESH, or REJOIN kills it.
fn poll_join(conn: &mut Conn) -> JoinPoll {
    loop {
        match conn.reader.fill(&mut conn.stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => return JoinPoll::Dead,
        }
    }
    match conn.reader.next_frame() {
        Ok(None) => JoinPoll::Waiting,
        Ok(Some((KIND_JOIN, payload))) if payload.len() == 4 => match read_array(payload, 0) {
            Ok(bytes) => JoinPoll::Joined(u32::from_le_bytes(bytes)),
            Err(_) => JoinPoll::Dead,
        },
        Ok(Some((KIND_JOIN_FRESH, payload))) if payload.len() == 4 => {
            match read_array(payload, 0) {
                Ok(bytes) => JoinPoll::JoinedFresh(u32::from_le_bytes(bytes)),
                Err(_) => JoinPoll::Dead,
            }
        }
        Ok(Some((KIND_REJOIN, payload))) if payload.len() == 16 => {
            match (
                read_array(payload, 0),
                read_array(payload, 4),
                read_array(payload, 12),
            ) {
                (Ok(id), Ok(token), Ok(next_slot)) => JoinPoll::Rejoin {
                    id: u32::from_le_bytes(id),
                    token: u64::from_le_bytes(token),
                    next_slot: u32::from_le_bytes(next_slot),
                },
                _ => JoinPoll::Dead,
            }
        }
        _ => JoinPoll::Dead,
    }
}

/// Best-effort broadcast to every live connection; write failures drop
/// the connection and record the loss in `dead` so the next
/// [`Transport::poll`] reports the [`Event::Detached`].
fn broadcast(conns: &mut [Option<Conn>], frame: &[u8], dead: &mut Vec<u32>) {
    for (id, slot) in conns.iter_mut().enumerate() {
        let lost = match slot {
            Some(conn) => write_all_frame(&mut conn.stream, frame).is_err(),
            None => false,
        };
        if lost {
            *slot = None;
            dead.push(id as u32);
        }
    }
}
