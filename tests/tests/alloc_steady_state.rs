//! Allocation bound for the zero-copy round engine: after warm-up, a
//! training round performs **zero** heap allocations for the `average`,
//! `krum`, and `median` cells with the Gaussian mechanism, serial and
//! with a parallel aggregation pool. The wire codec the network engines
//! share is pinned at zero on its own: encoding into a recycled frame and
//! decoding straight into a live vector stay allocation-free once warm.
//! The TCP engine's rounds are held to a small fixed bound.
//!
//! A counting global allocator snapshots the cumulative allocation count
//! at every step (via a passive observer); the per-round deltas over the
//! back half of the run must all be zero. Any clone-per-round regression
//! in the worker loop, the wire codec, the server's round processing, the
//! VN diagnostics, or the GAR scratch path fails this test immediately.
//!
//! The counter is process-wide, so the binary has no libtest harness
//! (`harness = false`): libtest runs tests on parallel threads and does
//! its own bookkeeping on others, and all of it would land in a cell's
//! per-round deltas. [`main`] runs the cells one at a time instead, with
//! nothing else in the process, and reports them as libtest does.

use dpbyz::data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz::data::synthetic;
use dpbyz::dp::{GaussianMechanism, Mechanism};
use dpbyz::gars::{Average, CoordinateMedian, Gar, Krum};
use dpbyz::models::{LogisticRegression, LossKind};
use dpbyz::server::message::{GradientMessage, StepMessage};
use dpbyz::server::{FnObserver, Trainer, TrainingConfig};
use dpbyz::tensor::{Prng, Vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts every allocation event (alloc, alloc_zeroed, realloc) while
/// delegating to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const STEPS: u32 = 40;

/// Runs one cell and returns the cumulative allocation count observed at
/// the end of every step.
fn per_step_allocation_counts(gar: Arc<dyn Gar>) -> Vec<u64> {
    per_step_allocation_counts_on(gar, 1)
}

/// [`per_step_allocation_counts`] with intra-round aggregation
/// parallelism: `agg_threads > 1` shards the GAR's coordinate/candidate
/// loops over the compute pool, whose task packets must also recycle
/// allocation-free once warm (worker threads and channel buffers land in
/// round 1).
fn per_step_allocation_counts_on(gar: Arc<dyn Gar>, agg_threads: usize) -> Vec<u64> {
    let n = 5;
    let mut rng = Prng::seed_from_u64(11);
    let ds = Arc::new(synthetic::phishing_like(&mut rng, 400));
    let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
    let config = TrainingConfig::builder()
        .workers(n, 0)
        .batch_size(10)
        .steps(STEPS)
        .eval_every(0)
        .agg_threads(agg_threads)
        .build()
        .unwrap();
    let sources: Vec<Box<dyn BatchSource>> = (0..n)
        .map(|_| {
            Box::new(DatasetSource::new(
                ds.clone(),
                SamplingMode::WithReplacement,
            )) as Box<dyn BatchSource>
        })
        .collect();
    // The snapshot buffer is pre-reserved so the observer itself never
    // allocates on the hot path.
    let snapshots: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(STEPS as usize)));
    let sink = snapshots.clone();
    let trainer = Trainer::new(config, model, sources, None)
        .gar(gar)
        .mechanism(Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()) as Arc<dyn Mechanism>)
        .observer(Box::new(FnObserver::new(move |_m| {
            sink.lock().unwrap().push(allocation_count());
        })));
    trainer.run(1).unwrap();
    Arc::try_unwrap(snapshots).unwrap().into_inner().unwrap()
}

fn assert_steady_state_allocation_free(name: &str, counts: &[u64]) {
    assert_eq!(counts.len(), STEPS as usize);
    // Warm-up (first rounds) may allocate: buffers grow to the topology's
    // sizes. From mid-run on, every per-round delta must be exactly zero.
    let tail = &counts[counts.len() / 2..];
    for (i, pair) in tail.windows(2).enumerate() {
        assert_eq!(
            pair[1] - pair[0],
            0,
            "{name}: round {} allocated {} time(s) at steady state \
             (full counts: {counts:?})",
            counts.len() / 2 + i + 1,
            pair[1] - pair[0],
        );
    }
}

fn average_cell_is_allocation_free_at_steady_state() {
    let counts = per_step_allocation_counts(Arc::new(Average::new()));
    assert_steady_state_allocation_free("average/gaussian", &counts);
}

fn krum_cell_is_allocation_free_at_steady_state() {
    let counts = per_step_allocation_counts(Arc::new(Krum::new()));
    assert_steady_state_allocation_free("krum/gaussian", &counts);
}

fn median_cell_is_allocation_free_at_steady_state() {
    let counts = per_step_allocation_counts(Arc::new(CoordinateMedian::new()));
    assert_steady_state_allocation_free("median/gaussian", &counts);
}

// The intra-round parallel aggregation path (`agg_threads > 1`) reaches
// the same zero-allocations-per-round steady state: the pool's task
// packets (column transposes, per-shard outputs, sort scratch) round-trip
// through the worker channels and are recycled, so after the round-1
// warm-up the parallel shard bodies allocate nothing.

fn parallel_median_cell_is_allocation_free_at_steady_state() {
    let counts = per_step_allocation_counts_on(Arc::new(CoordinateMedian::new()), 4);
    assert_steady_state_allocation_free("median/gaussian/agg_threads=4", &counts);
}

fn parallel_krum_cell_is_allocation_free_at_steady_state() {
    let counts = per_step_allocation_counts_on(Arc::new(Krum::new()), 4);
    assert_steady_state_allocation_free("krum/gaussian/agg_threads=4", &counts);
}

// ---- the wire codec ----------------------------------------------------

// The codec every network engine drives: a gradient frame and a step
// broadcast at the paper's dimension (d = 69), each encoded into one
// recycled buffer and decoded straight into one live vector. Once warm,
// an iteration allocates nothing.

fn wire_codec_is_allocation_free_at_steady_state() {
    let mut rng = Prng::seed_from_u64(11);
    let gradient = rng.normal_vector(69, 1.0);
    let params = rng.normal_vector(69, 1.0);
    // Inferred as the codec's `BytesMut`, recycled across iterations.
    let mut frame = Default::default();
    let mut decoded = Vector::default();
    let mut counts = Vec::with_capacity(STEPS as usize);
    for t in 1..=STEPS {
        GradientMessage::encode_frame(3, t, &gradient, &mut frame);
        assert_eq!(
            GradientMessage::decode_into(&frame, &mut decoded),
            Ok((3, t))
        );
        assert_eq!(decoded, gradient);
        StepMessage::encode_frame(t, 10, &params, &mut frame);
        assert_eq!(StepMessage::decode_into(&frame, &mut decoded), Ok((t, 10)));
        assert_eq!(decoded, params);
        counts.push(allocation_count());
    }
    assert_steady_state_allocation_free("codec/gradient+step/d=69", &counts);
}

// ---- the TCP deployment -------------------------------------------------

/// [`per_step_allocation_counts`] over the real socket transport: a
/// [`TcpCoordinator`] round-trips every step through localhost TCP with
/// one worker-session thread per honest worker. The counting allocator
/// is process-global, so the snapshots include the worker sessions too.
fn per_step_allocation_counts_tcp(gar: Arc<dyn Gar>) -> Vec<u64> {
    use dpbyz::net::{run_worker, CoordinatorConfig, TcpCoordinator, WorkerConfig};
    use dpbyz::RunScratch;

    let n = 5;
    let mut rng = Prng::seed_from_u64(11);
    let ds = Arc::new(synthetic::phishing_like(&mut rng, 400));
    let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
    let config = TrainingConfig::builder()
        .workers(n, 0)
        .batch_size(10)
        .steps(STEPS)
        .eval_every(0)
        .build()
        .unwrap();
    let sources: Vec<Box<dyn BatchSource>> = (0..n)
        .map(|_| {
            Box::new(DatasetSource::new(
                ds.clone(),
                SamplingMode::WithReplacement,
            )) as Box<dyn BatchSource>
        })
        .collect();
    let snapshots: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(STEPS as usize)));
    let sink = snapshots.clone();
    let trainer = Trainer::new(config, model, sources, None)
        .gar(gar)
        .mechanism(Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()) as Arc<dyn Mechanism>)
        .observer(Box::new(FnObserver::new(move |_m| {
            sink.lock().unwrap().push(allocation_count());
        })));

    let mut scratch = RunScratch::new();
    let (core, workers) = trainer.into_distributed_parts(1, &mut scratch);
    let coordinator = TcpCoordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            min_workers: n,
            quorum: n,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let handles: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || run_worker(addr, w, WorkerConfig::default())))
        .collect();
    coordinator.run(core, n, 1, &mut scratch).unwrap();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    Arc::try_unwrap(snapshots).unwrap().into_inner().unwrap()
}

/// The socket engine keeps per-round allocations bounded once warm: both
/// endpoints recycle their frame buffers (`FrameReader` compacts in
/// place, senders reuse one `BytesMut`), so the only tolerated residue is
/// incidental — not proportional to rounds, dimension, or workers. The
/// kernel's socket buffers live outside the global allocator and are
/// invisible here.
const TCP_STEADY_STATE_ALLOCS_PER_ROUND: u64 = 8;

fn assert_steady_state_allocation_bounded(name: &str, counts: &[u64]) {
    assert_eq!(counts.len(), STEPS as usize);
    let tail = &counts[counts.len() / 2..];
    for (i, pair) in tail.windows(2).enumerate() {
        assert!(
            pair[1] - pair[0] <= TCP_STEADY_STATE_ALLOCS_PER_ROUND,
            "{name}: round {} allocated {} time(s) at steady state, \
             above the {TCP_STEADY_STATE_ALLOCS_PER_ROUND}-allocation bound \
             (full counts: {counts:?})",
            counts.len() / 2 + i + 1,
            pair[1] - pair[0],
        );
    }
}

fn tcp_average_cell_keeps_rounds_allocation_bounded() {
    let counts = per_step_allocation_counts_tcp(Arc::new(Average::new()));
    assert_steady_state_allocation_bounded("tcp/average/gaussian", &counts);
}

fn tcp_median_cell_keeps_rounds_allocation_bounded() {
    let counts = per_step_allocation_counts_tcp(Arc::new(CoordinateMedian::new()));
    assert_steady_state_allocation_bounded("tcp/median/gaussian", &counts);
}

// ---- the sequential harness --------------------------------------------

/// Pairs each cell with its name, so the two cannot drift apart.
macro_rules! cells {
    ($($cell:ident),* $(,)?) => {
        [$((stringify!($cell), $cell as fn())),*]
    };
}

/// Every cell, under the name the suite reports it by.
const CELLS: [(&str, fn()); 8] = cells![
    average_cell_is_allocation_free_at_steady_state,
    krum_cell_is_allocation_free_at_steady_state,
    median_cell_is_allocation_free_at_steady_state,
    parallel_median_cell_is_allocation_free_at_steady_state,
    parallel_krum_cell_is_allocation_free_at_steady_state,
    wire_codec_is_allocation_free_at_steady_state,
    tcp_average_cell_keeps_rounds_allocation_bounded,
    tcp_median_cell_keeps_rounds_allocation_bounded,
];

/// Runs every cell in order on this thread and reports each in
/// libtest's line format. Command-line arguments (name filters,
/// `--test-threads`, `-q`) are ignored: the whole binary takes seconds.
fn main() -> ExitCode {
    let start = Instant::now();
    println!("\nrunning {} tests", CELLS.len());
    let mut failed = 0;
    for (name, cell) in CELLS {
        if std::panic::catch_unwind(cell).is_ok() {
            println!("test {name} ... ok");
        } else {
            println!("test {name} ... FAILED");
            failed += 1;
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed; 0 ignored; 0 measured; 0 filtered out; finished in {:.2}s\n",
        if failed == 0 { "ok" } else { "FAILED" },
        CELLS.len() - failed,
        start.elapsed().as_secs_f64(),
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(101)
    }
}
