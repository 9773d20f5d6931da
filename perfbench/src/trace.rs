//! The traced run: timing decorators around each layer's public trait,
//! a per-thread span recorder, and the run assembly that puts the
//! decorators in place using only public constructors.
//!
//! Every decorator delegates every trait method to the wrapped component,
//! so a traced run computes exactly what an untraced one does; the
//! benchmark proves it per run by comparing `RunHistory` digests.

use dpbyz::attacks::{Attack, AttackContext};
use dpbyz::data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz::data::synthetic::{self, MeanEstimationSource};
use dpbyz::data::{Batch, Dataset};
use dpbyz::dp::Mechanism;
use dpbyz::gars::{Gar, GarError, GarScratch};
use dpbyz::models::{LogisticRegression, LossKind, Model, QuadraticMean};
use dpbyz::net::machine::{Event, MachineConfig, Phase};
use dpbyz::net::sim::{FaultPlan, SimNet};
use dpbyz::net::transport::{drive, Transport};
use dpbyz::registry;
use dpbyz::server::{RunHistory, RunObserver, RunScratch, StepMetrics, Trainer, WorkerOutput};
use dpbyz::tensor::{Prng, Vector};
use dpbyz::{ComponentSpec, Experiment, PipelineError, Workload};
use std::cell::RefCell;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// A layer boundary the traced run records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `BatchSource::next_batch_into`.
    Sample,
    /// `Mechanism::perturb_in_place`.
    Noise,
    /// `Model::loss`.
    Loss,
    /// `Model::gradient_into`.
    Grad,
    /// `Model::predict` calls of one evaluation, as one span.
    Eval,
    /// `Attack::forge_into`.
    Forge,
    /// `Gar::aggregate_into`.
    Aggregate,
    /// `HonestWorker::compute_into`.
    Worker,
    /// `Transport::poll`.
    Poll,
    /// `Transport::broadcast_step`.
    Broadcast,
    /// Experiment spec to a ready trainer and workers.
    Setup,
    /// Dataset (or mean-estimation instance) generation.
    Generate,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 12;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for a top-level span.
    pub parent: u32,
    /// Round the span started in; 0 is set-up.
    pub round: u32,
}

/// Per-thread span recorder for one run.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
    round_start: u64,
    round_walls: Vec<u64>,
    eval_open: Option<usize>,
    idle_calls: u64,
    events: u64,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer) -> usize {
        let start = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
        });
        self.stack.push(index as u32);
        index
    }

    fn close(&mut self, index: usize) {
        let end = self.now();
        self.spans[index].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index as u32), "spans close in LIFO order");
    }

    fn end_round(&mut self) {
        let now = self.now();
        if let Some(eval) = self.eval_open.take() {
            self.spans[eval].end = now;
        }
        self.round_walls.push(now - self.round_start);
        self.round_start = now;
        self.round += 1;
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|cell| cell.borrow_mut().as_mut().map(f))
}

/// Closes its span when dropped; inert when no recorder is installed.
pub struct SpanGuard(Option<usize>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            with_recorder(|r| r.close(index));
        }
    }
}

/// Opens a span on this thread's recorder.
pub fn span(layer: Layer) -> SpanGuard {
    SpanGuard(with_recorder(|r| r.open(layer)))
}

/// Installs a fresh recorder on this thread (set-up spans start here).
fn install() {
    RECORDER.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            round: 0,
            round_start: 0,
            round_walls: Vec::new(),
            eval_open: None,
            idle_calls: 0,
            events: 0,
        });
    });
}

/// Marks the start of round 1: everything before it is set-up.
fn begin_rounds() {
    with_recorder(|r| {
        r.round_start = r.now();
        r.round = 1;
    });
}

/// Removes this thread's recorder and reduces its spans.
fn take() -> RunTrace {
    let recorder = RECORDER
        .with(|cell| cell.borrow_mut().take())
        .expect("a recorder was installed for this run");
    RunTrace::reduce(recorder)
}

/// Ends the current round at every step the server core completes.
struct RoundMark;

impl RunObserver for RoundMark {
    fn on_step(&mut self, _metrics: &StepMetrics<'_>) {
        with_recorder(Recorder::end_round);
    }
}

/// What one traced run measured, reduced from its spans.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Self time per layer over rounds ≥ 1, in ns.
    pub self_ns: [u64; LAYERS],
    /// Span count per layer over rounds ≥ 1.
    pub calls: [u64; LAYERS],
    /// Round wall times, in ns.
    pub round_walls: Vec<u64>,
    /// Round time not covered by any top-level span, in ns: the server
    /// core outside forge, aggregate and eval, and the round loop.
    pub core_self_ns: u64,
    pub idle_calls: u64,
    pub events: u64,
    /// Duration of the set-up span, in ns.
    pub setup_ns: u64,
    /// Duration of the generation spans inside set-up, in ns.
    pub generate_ns: u64,
    /// The raw spans, kept for the first traced run only.
    pub spans: Vec<Span>,
}

impl RunTrace {
    fn reduce(r: Recorder) -> RunTrace {
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut trace = RunTrace {
            round_walls: r.round_walls,
            idle_calls: r.idle_calls,
            events: r.events,
            ..RunTrace::default()
        };
        let mut top_level_ns = 0;
        for (s, &children) in r.spans.iter().zip(&child_ns) {
            let duration = s.end - s.start;
            if s.round == 0 {
                match s.layer {
                    Layer::Setup => trace.setup_ns += duration,
                    Layer::Generate => trace.generate_ns += duration,
                    _ => {}
                }
                continue;
            }
            trace.self_ns[s.layer as usize] += duration.saturating_sub(children);
            trace.calls[s.layer as usize] += 1;
            if s.parent == NO_PARENT {
                top_level_ns += duration;
            }
        }
        let wall: u64 = trace.round_walls.iter().sum();
        trace.core_self_ns = wall.saturating_sub(top_level_ns);
        trace.spans = r.spans;
        trace
    }
}

// ---- decorators -------------------------------------------------------

struct TracedModel(Arc<dyn Model>);

impl Model for TracedModel {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        let _span = span(Layer::Loss);
        self.0.loss(params, batch)
    }
    fn gradient(&self, params: &Vector, batch: &Batch) -> Vector {
        let _span = span(Layer::Grad);
        self.0.gradient(params, batch)
    }
    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        let _span = span(Layer::Grad);
        self.0.gradient_into(params, batch, out);
    }
    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        // One evaluation calls `predict` once per test example; it is
        // recorded as one span from the first call to the end of the
        // round, which follows the evaluation directly.
        with_recorder(|r| {
            if r.eval_open.is_none() {
                let index = r.open(Layer::Eval);
                r.stack.pop();
                r.eval_open = Some(index);
            }
        });
        self.0.predict(params, features)
    }
    fn init_params(&self, rng: &mut Prng) -> Vector {
        self.0.init_params(rng)
    }
}

struct TracedSource(Box<dyn BatchSource>);

impl BatchSource for TracedSource {
    fn num_features(&self) -> usize {
        self.0.num_features()
    }
    fn next_batch(&mut self, batch_size: usize, rng: &mut Prng) -> Batch {
        let _span = span(Layer::Sample);
        self.0.next_batch(batch_size, rng)
    }
    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch) {
        let _span = span(Layer::Sample);
        self.0.next_batch_into(batch_size, rng, out);
    }
}

struct TracedMechanism(Arc<dyn Mechanism>);

impl Mechanism for TracedMechanism {
    fn perturb(&self, gradient: &Vector, rng: &mut Prng) -> Vector {
        let _span = span(Layer::Noise);
        self.0.perturb(gradient, rng)
    }
    fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut Prng) {
        let _span = span(Layer::Noise);
        self.0.perturb_in_place(gradient, rng);
    }
    fn per_coordinate_std(&self) -> f64 {
        self.0.per_coordinate_std()
    }
    fn total_noise_variance(&self, dim: usize) -> f64 {
        self.0.total_noise_variance(dim)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

struct TracedAttack(Arc<dyn Attack>);

impl Attack for TracedAttack {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn forge(&self, ctx: &AttackContext<'_>, rng: &mut Prng) -> Vector {
        let _span = span(Layer::Forge);
        self.0.forge(ctx, rng)
    }
    fn forge_into(&self, ctx: &AttackContext<'_>, rng: &mut Prng, out: &mut Vector) {
        let _span = span(Layer::Forge);
        self.0.forge_into(ctx, rng, out);
    }
}

struct TracedGar(Arc<dyn Gar>);

impl Gar for TracedGar {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn aggregate(&self, gradients: &[Vector], f: usize) -> Result<Vector, GarError> {
        let _span = span(Layer::Aggregate);
        self.0.aggregate(gradients, f)
    }
    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        let _span = span(Layer::Aggregate);
        self.0.aggregate_into(gradients, f, scratch, out)
    }
    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        self.0.kappa(n, f)
    }
    fn max_byzantine(&self, n: usize) -> usize {
        self.0.max_byzantine(n)
    }
}

/// Times `poll` and `broadcast_step` and counts idles and events.
struct TracedNet<T: Transport>(T);

impl<T: Transport> Transport for TracedNet<T> {
    fn now_ms(&mut self) -> u64 {
        self.0.now_ms()
    }
    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        let before = events.len();
        let moved = {
            let _span = span(Layer::Poll);
            self.0.poll(phase, outputs, events)
        };
        let emitted = events.len().saturating_sub(before) as u64;
        with_recorder(|r| r.events += emitted);
        moved
    }
    fn start_warmup(&mut self) {
        self.0.start_warmup();
    }
    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        let _span = span(Layer::Broadcast);
        self.0.broadcast_step(step, batch, params);
    }
    fn finish(&mut self) {
        self.0.finish();
    }
    fn abort(&mut self, reason: &str) {
        self.0.abort(reason);
    }
    fn idle(&mut self, next_deadline_ms: Option<u64>) {
        with_recorder(|r| r.idle_calls += 1);
        self.0.idle(next_deadline_ms);
    }
}

// ---- traced assembly and round loops --------------------------------------

type WorkloadParts = (
    Arc<dyn Model>,
    Vec<Box<dyn BatchSource>>,
    Option<Arc<Dataset>>,
);

/// Builds the experiment's trainer with every component wrapped: the
/// traced twin of `Experiment::build_trainer`, from public constructors.
fn assemble(exp: &Experiment) -> Result<Trainer, PipelineError> {
    let n = exp.config.n_workers;
    let (model, sources, test): WorkloadParts = match &exp.workload {
        Workload::PhishingLike { data_seed, size } => {
            let (train, test) = {
                let _span = span(Layer::Generate);
                let mut rng = Prng::seed_from_u64(*data_seed);
                let ds = synthetic::phishing_like(&mut rng, *size);
                let n_train = ((*size as f64) * 0.76).round() as usize;
                ds.split_at(n_train)
                    .map_err(|e| PipelineError::Spec(format!("dataset too small: {e}")))?
            };
            let train = Arc::new(train);
            let model = Arc::new(LogisticRegression::new(
                train.num_features(),
                LossKind::SigmoidMse,
            ));
            let sources = (0..n)
                .map(|_| {
                    Box::new(DatasetSource::new(
                        train.clone(),
                        SamplingMode::WithReplacement,
                    )) as Box<dyn BatchSource>
                })
                .collect();
            (model, sources, Some(Arc::new(test)))
        }
        Workload::MeanEstimation { dim, .. } => {
            let dist = {
                let _span = span(Layer::Generate);
                exp.mean_estimation_instance()
                    .expect("a mean-estimation workload has an instance")
            };
            let sources = (0..n)
                .map(|_| Box::new(MeanEstimationSource(dist.clone())) as Box<dyn BatchSource>)
                .collect();
            (Arc::new(QuadraticMean::new(*dim)), sources, None)
        }
        Workload::Provided { .. } => {
            return Err(PipelineError::Spec(
                "the traced run supports generated workloads only".into(),
            ))
        }
    };

    let mechanism_spec = if exp.budget.is_none()
        && registry::mechanism_capabilities(&exp.mechanism.id).requires_budget
    {
        ComponentSpec::new("none")
    } else {
        let mut spec = exp.mechanism.clone();
        if let Some(budget) = &exp.budget {
            spec.default_param("epsilon", budget.epsilon());
            spec.default_param("delta", budget.delta());
        }
        spec.default_param("g_max", exp.dp_reference_g_max.unwrap_or(exp.config.clip));
        spec.default_param("batch_size", exp.config.batch_size);
        spec.default_param("dim", model.dim());
        spec
    };
    let mechanism = registry::build_mechanism(&mechanism_spec)?;

    let model: Arc<dyn Model> = Arc::new(TracedModel(model));
    let sources = sources
        .into_iter()
        .map(|s| Box::new(TracedSource(s)) as Box<dyn BatchSource>)
        .collect();
    let mut trainer = Trainer::new(exp.config.clone(), model, sources, test)
        .gar(Arc::new(TracedGar(registry::build_gar(&exp.gar)?)))
        .mechanism(Arc::new(TracedMechanism(mechanism)))
        .observer(Box::new(RoundMark));
    if let Some(attack) = &exp.attack {
        trainer = trainer.attack(Arc::new(TracedAttack(registry::build_attack(attack)?)));
    }
    Ok(trainer)
}

/// One traced run on the sequential round loop: the same loop as
/// `Trainer::run_with_scratch`, with a span around each worker step.
pub fn sequential(
    exp: &Experiment,
    seed: u64,
    scratch: &mut RunScratch,
) -> Result<(RunHistory, RunTrace), PipelineError> {
    install();
    let setup = span(Layer::Setup);
    let built = assemble(exp).map(|t| t.into_distributed_parts(seed, scratch));
    drop(setup);
    let (mut core, mut workers) = match built {
        Ok(parts) => parts,
        Err(e) => {
            take();
            return Err(e);
        }
    };
    begin_rounds();
    let mut outputs = scratch.take_outputs();
    outputs.resize_with(workers.len(), WorkerOutput::default);
    let mut params = Vector::zeros(0);
    let mut result = Ok(());
    for t in 1..=core.config().steps {
        params.copy_from(core.params());
        let batch = core.config().batch_at(t);
        for (w, out) in workers.iter_mut().zip(outputs.iter_mut()) {
            let _span = span(Layer::Worker);
            w.compute_into(&params, batch, out);
        }
        if let Err(e) = core.process_round(t, &mut outputs) {
            result = Err(e);
            break;
        }
    }
    scratch.restore_outputs(outputs);
    core.reclaim_scratch(scratch);
    let trace = take();
    result
        .map(|()| (core.finish(seed), trace))
        .map_err(PipelineError::Gar)
}

/// Deployment shape of a sim run: every honest worker joins and reports
/// each round, with the sim backend's default deadlines and costs.
pub struct SimShape {
    pub plan: FaultPlan,
    pub compute_ms: u64,
    pub resume_window: usize,
}

impl SimShape {
    pub const DEADLINE_MS: u64 = 10_000;

    /// The sim backend's defaults with a chaos plan from `chaos_seed`.
    pub fn chaos(chaos_seed: u64, n_honest: usize) -> Self {
        SimShape {
            plan: FaultPlan::from_seed(chaos_seed, n_honest),
            compute_ms: 2,
            resume_window: 32,
        }
    }

    pub fn machine(&self, n_honest: usize, steps: u32, staleness_window: u32) -> MachineConfig {
        MachineConfig {
            n_workers: n_honest,
            min_workers: n_honest,
            quorum: n_honest,
            steps,
            join_deadline_ms: Self::DEADLINE_MS,
            warmup_deadline_ms: Self::DEADLINE_MS,
            step_deadline_ms: Self::DEADLINE_MS,
            staleness_window,
        }
    }
}

/// One traced run over the in-memory chaos transport, driven by the
/// coordinator's `drive` loop with a timing decorator around `SimNet`.
pub fn sim(
    exp: &Experiment,
    seed: u64,
    shape: &SimShape,
    scratch: &mut RunScratch,
) -> Result<(RunHistory, RunTrace), PipelineError> {
    install();
    let setup = span(Layer::Setup);
    let built = assemble(exp).map(|trainer| {
        let (core, workers) = trainer.into_distributed_parts(seed, scratch);
        let n_honest = workers.len();
        let staleness = core.config().staleness_window;
        let cfg = shape.machine(n_honest, core.config().steps, staleness);
        let net = SimNet::new(
            workers,
            &shape.plan,
            seed,
            shape.compute_ms,
            shape.resume_window,
            staleness,
        );
        (core, cfg, net)
    });
    drop(setup);
    let (core, cfg, net) = match built {
        Ok(parts) => parts,
        Err(e) => {
            take();
            return Err(e);
        }
    };
    let mut net = TracedNet(net);
    begin_rounds();
    let result = drive(&mut net, core, cfg, seed, scratch);
    let trace = take();
    result
        .map(|h| (h, trace))
        .map_err(|e| PipelineError::Spec(format!("sim run: {e}")))
}
