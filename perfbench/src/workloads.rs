//! The benchmark's workloads, their inputs derived from the workload
//! seed, the digest gate, and the closed loops of the untraced
//! and traced passes.

use crate::trace::{self, RunTrace, SimShape};
use dpbyz::dp::PrivacyBudget;
use dpbyz::net::sim::SimNet;
use dpbyz::net::transport::drive;
use dpbyz::server::{RunHistory, RunObserver, RunScratch, StepMetrics};
use dpbyz::sweep::SweepBuilder;
use dpbyz::{ComponentSpec, Experiment, PipelineError};
use dpbyz_bench::{cell_experiment, FIGURE_CELLS};
use dpbyz_core::engine::register_backend;
use dpbyz_core::EngineBackend;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSeq,
    LargeDSim,
    FigureSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSeq,
        Workload::LargeDSim,
        Workload::FigureSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSeq => "paper-seq",
            Workload::LargeDSim => "large-d-sim",
            Workload::FigureSweep => "figure-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `round_tail_us` reports, fixed per workload and
    /// leaving at least ten rounds beyond it in every invocation: p99
    /// lands among the eval rounds of 1000-round runs; `large-d-sim`
    /// has no eval rounds and about 210 rounds per window, so p90.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PaperSeq | Workload::FigureSweep => 99.0,
            Workload::LargeDSim => 90.0,
        }
    }

    /// Distinct run seeds per workload seed. Runs cycle through them, so
    /// every repeat of a run seed must reproduce its digest.
    pub fn cycle(self) -> usize {
        match self {
            Workload::PaperSeq => 8,
            Workload::LargeDSim => 4,
            Workload::FigureSweep => FIGURE_CELLS.len() * SWEEP_SEEDS,
        }
    }

    pub fn default_steps(self) -> u32 {
        match self {
            Workload::PaperSeq | Workload::FigureSweep => 1000,
            Workload::LargeDSim => 8,
        }
    }

    /// Runs executing at once.
    pub fn pool(self) -> usize {
        match self {
            Workload::FigureSweep => SWEEP_POOL,
            _ => 1,
        }
    }
}

/// Seeds per cell in one figure sweep.
const SWEEP_SEEDS: usize = 4;
const SWEEP_POOL: usize = 2;
const LARGE_D: usize = 100_000;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Training seed of run `index` under `workload_seed`.
pub fn run_seed(workload_seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ index as u64)
}

/// Chaos-plan seed of run `index` under `workload_seed`.
fn chaos_seed(workload_seed: u64, index: usize) -> u64 {
    splitmix64(run_seed(workload_seed, index) ^ 0xC4A0_5EED)
}

/// The experiment a workload runs, at `steps` rounds.
pub fn experiment(workload: Workload, steps: u32) -> Result<Experiment, PipelineError> {
    match workload {
        // §5.1 headline cell: n = 11, f = 5, b = 50, Gaussian DP at
        // (0.2, 1e-6), ALIE against MDA, worker momentum 0.99, eval every
        // 50 steps — the builder's defaults plus the armed components.
        Workload::PaperSeq => Experiment::builder()
            .gar("mda")
            .attack("alie")
            .epsilon(0.2)
            .agg_threads(2)
            .steps(steps)
            .build(),
        Workload::LargeDSim => {
            let budget = PrivacyBudget::new(0.2, 1e-6)?;
            let mut exp = Experiment::theorem1(LARGE_D, 1.0, Some(budget), steps, 1, 11)?;
            exp.attack = Some(ComponentSpec::new("alie"));
            exp.gar = ComponentSpec::new("median");
            exp.config.n_byzantine = 5;
            exp.config.agg_threads = 2;
            Ok(exp)
        }
        Workload::FigureSweep => Err(PipelineError::Spec(
            "figure-sweep runs a grid of cells, not one experiment".into(),
        )),
    }
}

fn sweep_cells(steps: u32) -> Result<Vec<(&'static str, Experiment)>, PipelineError> {
    FIGURE_CELLS
        .iter()
        .map(|&cell| {
            cell_experiment(cell, 50, steps, dpbyz::data::synthetic::PHISHING_SIZE)
                .map(|exp| (cell.label, exp))
        })
        .collect()
}

// ---- correctness gate ---------------------------------------------------

/// Pinned digests keyed by (workload, workload seed, steps, run index).
pub type Pins = BTreeMap<(String, u64, u32, usize), u64>;

/// Parses `workload seed steps index 0xdigest` lines; `#` starts a comment.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = || {
            format!(
                "pins line {}: expected `workload seed steps index 0xdigest`",
                n + 1
            )
        };
        let [workload, seed, steps, index, digest] = fields[..] else {
            return Err(bad());
        };
        let digest = digest.strip_prefix("0x").ok_or_else(bad)?;
        pins.insert(
            (
                workload.to_string(),
                seed.parse().map_err(|_| bad())?,
                steps.parse().map_err(|_| bad())?,
                index.parse().map_err(|_| bad())?,
            ),
            u64::from_str_radix(digest, 16).map_err(|_| bad())?,
        );
    }
    Ok(pins)
}

/// Checks every run of one invocation: no error, finite losses, the
/// pinned digest where one exists, and the same digest on every repeat
/// of a run seed (untraced or traced).
pub struct Gate<'a> {
    pins: &'a Pins,
    workload: Workload,
    seed: u64,
    steps: u32,
    /// First digest seen per run index.
    pub seen: BTreeMap<usize, u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Gate<'a> {
    pub fn new(pins: &'a Pins, workload: Workload, seed: u64, steps: u32) -> Self {
        Gate {
            pins,
            workload,
            seed,
            steps,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn check(&mut self, index: usize, run: Result<&RunHistory, &PipelineError>) {
        self.attempted += 1;
        let ok = match run {
            Err(e) => {
                eprintln!("{} run {index}: {e}", self.workload.name());
                false
            }
            Ok(h) if !h.train_loss.iter().all(|l| l.is_finite()) => {
                eprintln!("{} run {index}: non-finite loss", self.workload.name());
                false
            }
            Ok(h) => {
                let digest = h.digest();
                let key = (
                    self.workload.name().to_string(),
                    self.seed,
                    self.steps,
                    index,
                );
                let expected = self.pins.get(&key).or(self.seen.get(&index)).copied();
                match expected {
                    Some(want) if want != digest => {
                        eprintln!(
                            "{} run {index}: digest {digest:#018x}, expected {want:#018x}",
                            self.workload.name()
                        );
                        false
                    }
                    _ => {
                        self.seen.entry(index).or_insert(digest);
                        true
                    }
                }
            }
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` runs that never produced a history.
    pub fn fail_all(&mut self, n: usize, error: &PipelineError) {
        eprintln!("{}: {n} run(s) failed: {error}", self.workload.name());
        self.attempted += n as u64;
        self.failed += n as u64;
    }
}

// ---- untraced pass --------------------------------------------------------

/// Where finished runs leave (run start, round-end instants).
type ClockSink = Arc<Mutex<Vec<(Instant, Vec<Instant>)>>>;

/// Records the end of every round of one run.
struct Clock {
    start: Instant,
    steps: Vec<Instant>,
    sink: ClockSink,
}

impl Clock {
    fn boxed(sink: &ClockSink) -> Box<dyn RunObserver> {
        Box::new(Clock {
            start: Instant::now(),
            steps: Vec::with_capacity(1024),
            sink: sink.clone(),
        })
    }
}

impl RunObserver for Clock {
    fn on_step(&mut self, _metrics: &StepMetrics<'_>) {
        self.steps.push(Instant::now());
    }

    fn on_finish(&mut self, _history: &RunHistory) {
        let steps = std::mem::take(&mut self.steps);
        self.sink
            .lock()
            .expect("clock sink lock")
            .push((self.start, steps));
    }
}

/// What the untraced pass measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setups_s: Vec<f64>,
    pub rounds_us: Vec<f64>,
    /// Rounds run in the measured window (including those without a
    /// latency sample).
    pub rounds: u64,
    /// Rounds per second of each run, over its latency sample.
    pub run_round_rates: Vec<f64>,
    /// Runs per second of each batch — one run, or one sweep — set-up
    /// included.
    pub batch_rates: Vec<f64>,
    pub cpu_s: f64,
}

impl Measured {
    fn add_run(&mut self, setup_s: f64, latencies_us: Vec<f64>, rounds: usize) {
        let busy_s = latencies_us.iter().sum::<f64>() / 1e6;
        self.run_round_rates
            .push(latencies_us.len() as f64 / busy_s);
        self.setups_s.push(setup_s);
        self.rounds_us.extend(latencies_us);
        self.rounds += rounds as u64;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn latencies_us(round_start: Instant, steps: &[Instant], out: &mut Vec<f64>) {
    let mut prev = round_start;
    for &t in steps {
        out.push(secs(t - prev) * 1e6);
        prev = t;
    }
}

/// Process CPU time (user + system), in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks of 1/100 s.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// One untraced single run; returns its history, set-up time, and the
/// instant round 1 started, with the round-end instants.
fn single_run(
    workload: Workload,
    exp: &Experiment,
    workload_seed: u64,
    index: usize,
    scratch: &mut RunScratch,
) -> (
    Result<RunHistory, PipelineError>,
    f64,
    Instant,
    Vec<Instant>,
) {
    let seed = run_seed(workload_seed, index);
    let sink = Arc::new(Mutex::new(Vec::new()));
    let spec_at = Instant::now();
    let built = exp.build_trainer().map(|t| t.observer(Clock::boxed(&sink)));
    let (result, rounds_at) = match (workload, built) {
        (_, Err(e)) => (Err(e), Instant::now()),
        (Workload::LargeDSim, Ok(trainer)) => {
            // The sim backend's assembly, from public constructors, so the
            // set-up boundary is visible.
            let (core, workers) = trainer.into_distributed_parts(seed, scratch);
            let n_honest = workers.len();
            let shape = SimShape::chaos(chaos_seed(workload_seed, index), n_honest);
            let staleness = core.config().staleness_window;
            let cfg = shape.machine(n_honest, core.config().steps, staleness);
            let mut net = SimNet::new(
                workers,
                &shape.plan,
                seed,
                shape.compute_ms,
                shape.resume_window,
                staleness,
            );
            let rounds_at = Instant::now();
            let run = drive(&mut net, core, cfg, seed, scratch)
                .map_err(|e| PipelineError::Spec(format!("sim run: {e}")));
            (run, rounds_at)
        }
        // The sequential engine, on the trainer the pipeline builds.
        (_, Ok(trainer)) => {
            let rounds_at = Instant::now();
            (
                trainer
                    .run_with_scratch(seed, scratch)
                    .map_err(PipelineError::Gar),
                rounds_at,
            )
        }
    };
    let steps = sink
        .lock()
        .expect("clock sink lock")
        .pop()
        .map(|(_, steps)| steps)
        .unwrap_or_default();
    (result, secs(rounds_at - spec_at), rounds_at, steps)
}

/// The untraced closed loop: one warm-up run, then runs back to back
/// until `seconds` have passed and every run seed has run once.
pub fn measure(
    workload: Workload,
    workload_seed: u64,
    steps: u32,
    seconds: f64,
    gate: &mut Gate<'_>,
) -> Measured {
    if workload == Workload::FigureSweep {
        return measure_sweep(workload_seed, steps, seconds, gate);
    }
    let exp = match experiment(workload, steps) {
        Ok(exp) => exp,
        Err(e) => {
            gate.fail_all(1, &e);
            return Measured::default();
        }
    };
    let mut scratch = RunScratch::new();
    let (warm, ..) = single_run(workload, &exp, workload_seed, 0, &mut scratch);
    gate.check(0, warm.as_ref());

    let mut m = Measured::default();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut index = 0;
    while index < workload.cycle() || secs(start.elapsed()) < seconds {
        let slot = index % workload.cycle();
        let run_start = Instant::now();
        let (run, setup_s, rounds_at, ends) =
            single_run(workload, &exp, workload_seed, slot, &mut scratch);
        let run_s = secs(run_start.elapsed());
        gate.check(slot, run.as_ref());
        if run.is_ok() {
            let mut lat = Vec::with_capacity(ends.len());
            latencies_us(rounds_at, &ends, &mut lat);
            m.add_run(setup_s, lat, ends.len());
            m.batch_rates.push(1.0 / run_s);
        }
        index += 1;
    }
    m.cpu_s = process_cpu_s() - cpu0;
    m
}

fn sweep_seeds(workload_seed: u64) -> Vec<u64> {
    (0..SWEEP_SEEDS)
        .map(|i| run_seed(workload_seed, i))
        .collect()
}

/// Runs one figure sweep; checks its histories in (cell, seed) order.
fn one_sweep(
    cells: &[(&'static str, Experiment)],
    seeds: &[u64],
    observe: Option<ClockSink>,
    gate: &mut Gate<'_>,
) -> bool {
    let mut sweep = SweepBuilder::new().seeds(seeds).pool_size(SWEEP_POOL);
    for (label, exp) in cells {
        sweep = sweep.cell(*label, exp.clone());
    }
    if let Some(sink) = observe {
        sweep = sweep.observe_with(move |_job| Clock::boxed(&sink));
    }
    match sweep.run() {
        Ok(results) => {
            for (c, cell) in results.cells.iter().enumerate() {
                for (slot, h) in cell.histories.iter().enumerate() {
                    gate.check(c * seeds.len() + slot, Ok(h));
                }
            }
            true
        }
        Err(e) => {
            gate.fail_all(cells.len() * seeds.len(), &e);
            false
        }
    }
}

fn measure_sweep(workload_seed: u64, steps: u32, seconds: f64, gate: &mut Gate<'_>) -> Measured {
    let cells = match sweep_cells(steps) {
        Ok(cells) => cells,
        Err(e) => {
            gate.fail_all(Workload::FigureSweep.cycle(), &e);
            return Measured::default();
        }
    };
    let seeds = sweep_seeds(workload_seed);
    one_sweep(&cells, &seeds, None, gate);

    let mut m = Measured::default();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut sweeps = 0;
    while sweeps == 0 || secs(start.elapsed()) < seconds {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let sweep_start = Instant::now();
        if one_sweep(&cells, &seeds, Some(sink.clone()), gate) {
            let jobs = sink.lock().expect("clock sink lock");
            m.batch_rates
                .push(jobs.len() as f64 / secs(sweep_start.elapsed()));
            for (job_start, ends) in jobs.iter() {
                let Some(&first) = ends.first() else { continue };
                // A job's set-up ends where its first round starts; the
                // sweep exposes only the first round's end, so the job's
                // median round stands in for the first round.
                let mut lat = Vec::with_capacity(ends.len());
                latencies_us(first, &ends[1..], &mut lat);
                let round_s = crate::stats::median(&lat) / 1e6;
                let setup_s = secs(first - *job_start) - round_s.max(0.0);
                m.add_run(setup_s, lat, ends.len());
            }
        }
        sweeps += 1;
    }
    m.cpu_s = process_cpu_s() - cpu0;
    m
}

// ---- traced pass ----------------------------------------------------------

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub runs: Vec<RunTrace>,
    /// Σ run (job) time, in seconds.
    pub busy_s: f64,
    pub wall_s: f64,
}

/// Runs the traced twin of the workload for `seconds` (and at least one
/// run), on run indices the untraced pass already digested: each traced
/// history must reproduce its untraced digest.
pub fn measure_traced(
    workload: Workload,
    workload_seed: u64,
    steps: u32,
    seconds: f64,
    gate: &mut Gate<'_>,
) -> Traced {
    if workload == Workload::FigureSweep {
        return traced_sweep(workload_seed, steps, seconds, gate);
    }
    let mut traced = Traced::default();
    let exp = match experiment(workload, steps) {
        Ok(exp) => exp,
        Err(e) => {
            gate.fail_all(1, &e);
            return traced;
        }
    };
    let indices: Vec<usize> = gate.seen.keys().copied().collect();
    if indices.is_empty() {
        return traced;
    }
    let mut scratch = RunScratch::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || secs(start.elapsed()) < seconds {
        let index = indices[i % indices.len()];
        let seed = run_seed(workload_seed, index);
        let run_start = Instant::now();
        let run = match workload {
            Workload::LargeDSim => {
                let n_honest = exp.config.n_honest();
                let shape = SimShape::chaos(chaos_seed(workload_seed, index), n_honest);
                trace::sim(&exp, seed, &shape, &mut scratch)
            }
            _ => trace::sequential(&exp, seed, &mut scratch),
        };
        traced.busy_s += secs(run_start.elapsed());
        match run {
            Ok((history, mut trace)) => {
                gate.check(index, Ok(&history));
                if !traced.runs.is_empty() {
                    trace.spans = Vec::new();
                }
                traced.runs.push(trace);
            }
            Err(e) => gate.check(index, Err(&e)),
        }
        i += 1;
    }
    traced.wall_s = secs(start.elapsed());
    traced
}

const TRACED_BACKEND: &str = "perfbench-traced";

/// Traced sweep jobs report here: (trace, job seconds).
fn traced_jobs() -> &'static Mutex<Vec<(RunTrace, f64)>> {
    static JOBS: OnceLock<Mutex<Vec<(RunTrace, f64)>>> = OnceLock::new();
    JOBS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The traced sequential round loop as an engine backend, so the sweep
/// executor runs it on its own pool threads, one recorder per job.
struct TracedBackend;

impl EngineBackend for TracedBackend {
    fn name(&self) -> &str {
        TRACED_BACKEND
    }

    fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        _observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let start = Instant::now();
        let (history, mut trace) = trace::sequential(exp, seed, scratch)?;
        let job_s = secs(start.elapsed());
        let mut jobs = traced_jobs().lock().expect("traced jobs lock");
        if !jobs.is_empty() {
            trace.spans = Vec::new();
        }
        jobs.push((trace, job_s));
        Ok(history)
    }
}

fn traced_sweep(workload_seed: u64, steps: u32, seconds: f64, gate: &mut Gate<'_>) -> Traced {
    let mut traced = Traced::default();
    // Registration is per process; a second traced sweep reuses it.
    let _ = register_backend(TRACED_BACKEND, |_| {
        Ok(Arc::new(TracedBackend) as Arc<dyn EngineBackend>)
    });
    let cells = match sweep_cells(steps) {
        Ok(cells) => cells
            .into_iter()
            .map(|(label, mut exp)| {
                exp.backend = ComponentSpec::new(TRACED_BACKEND);
                (label, exp)
            })
            .collect::<Vec<_>>(),
        Err(e) => {
            gate.fail_all(Workload::FigureSweep.cycle(), &e);
            return traced;
        }
    };
    let seeds = sweep_seeds(workload_seed);
    traced_jobs().lock().expect("traced jobs lock").clear();
    let start = Instant::now();
    let mut sweeps = 0;
    while sweeps == 0 || secs(start.elapsed()) < seconds {
        one_sweep(&cells, &seeds, None, gate);
        sweeps += 1;
    }
    traced.wall_s = secs(start.elapsed());
    for (trace, job_s) in traced_jobs().lock().expect("traced jobs lock").drain(..) {
        traced.busy_s += job_s;
        traced.runs.push(trace);
    }
    traced
}
