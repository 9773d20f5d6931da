//! Emits `results/BENCH_baseline.json` and `results/BENCH_kernels.json`:
//! quick, fixed-seed micro-runs of the round-engine and kernel hot paths,
//! so CI can archive small artifacts per commit and future PRs can track
//! the perf trajectory without re-running the full criterion suite.
//!
//! Every measured workload is seeded and fixed-shape; the JSON keys are
//! stable so baselines diff cleanly. Timings are wall-clock medians of
//! `REPEATS` runs (median, not mean: robust to CI scheduler noise).
//!
//! ```text
//! cargo run --release -p dpbyz-bench --bin bench_baseline [-- --out DIR]
//! ```

use dpbyz::gars::GarScratch;
use dpbyz::registry::build_gar;
use dpbyz::ComponentSpec;
use dpbyz_bench::{cell_experiment, results_dir, Cell};
use dpbyz_tensor::{kernels, Prng, Vector};
use std::time::Instant;

const REPEATS: usize = 5;

/// Median wall-clock seconds of `REPEATS` runs of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[REPEATS / 2]
}

/// Hand-rolled JSON with a stable key order, no serializer dependency.
fn write_json(file: &str, schema: &str, entries: &[(String, f64)]) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str("  \"seconds\": {\n");
    for (i, (key, secs)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{key}\": {secs:.9}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    let path = results_dir().join(file);
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {}", path.display());
    print!("{json}");
}

/// The kernel-layer micro-baseline: scalar reference vs 4-lane blocked
/// kernel, per kernel, plus the batched distance-matrix fill the
/// Krum-family scratch drives (n = 11). Inner repetition counts are fixed
/// so every entry lands in a robustly timeable range.
/// A two-slice kernel under measurement (one-slice kernels ignore `b`).
type SliceKernel<'a> = &'a dyn Fn(&[f64], &[f64]) -> f64;

fn kernel_entries() -> Vec<(String, f64)> {
    let mut entries: Vec<(String, f64)> = Vec::new();
    // Times `reps` calls of a two-slice kernel and records the median.
    let entry = |entries: &mut Vec<(String, f64)>,
                 key: String,
                 reps: usize,
                 kernel: SliceKernel<'_>,
                 a: &[f64],
                 b: &[f64]| {
        let secs = time_median(|| {
            for _ in 0..reps {
                std::hint::black_box(kernel(std::hint::black_box(a), b));
            }
        });
        entries.push((key, secs));
    };
    for dim in [10usize, 1_000, 100_000] {
        let reps = 20_000_000 / dim.max(1);
        let mut rng = Prng::seed_from_u64(7);
        let a = rng.normal_vector(dim, 1.0).into_vec();
        let b = rng.normal_vector(dim, 1.0).into_vec();
        let cases: [(&str, SliceKernel<'_>); 6] = [
            ("dot/scalar", &|x, y| kernels::reference::dot(x, y)),
            ("dot/vectorized", &kernels::dot),
            ("squared_distance/scalar", &|x, y| {
                kernels::reference::squared_distance(x, y)
            }),
            ("squared_distance/vectorized", &kernels::squared_distance),
            ("l2_norm_squared/scalar", &|x, _| {
                kernels::reference::sum_squares(x)
            }),
            ("l2_norm_squared/vectorized", &|x, _| {
                kernels::sum_squares(x)
            }),
        ];
        for (name, kernel) in cases {
            let (stem, variant) = name.split_once('/').expect("name has a variant");
            entry(
                &mut entries,
                format!("{stem}_d{dim}/{variant}"),
                reps,
                kernel,
                &a,
                &b,
            );
        }
    }

    // The batched all-pairs distance-matrix fill vs the per-pair scalar
    // path (n = 11, d = 1000, 50 rounds per sample — the Krum-family
    // round shape).
    let mut rng = Prng::seed_from_u64(9);
    let grads: Vec<Vector> = (0..11).map(|_| rng.normal_vector(1_000, 1.0)).collect();
    let members: Vec<usize> = (0..grads.len()).collect();
    let mut out = Vec::new();
    let secs = time_median(|| {
        for _ in 0..50 {
            kernels::reference::pairwise_squared_distances(&grads, &members, &mut out);
            std::hint::black_box(out.last());
        }
    });
    entries.push(("distance_matrix_50rounds_n11_d1000/scalar".into(), secs));
    let secs = time_median(|| {
        for _ in 0..50 {
            kernels::pairwise_squared_distances(&grads, &members, &mut out);
            std::hint::black_box(out.last());
        }
    });
    entries.push(("distance_matrix_50rounds_n11_d1000/vectorized".into(), secs));
    entries
}

fn main() {
    let mut entries: Vec<(String, f64)> = Vec::new();

    // End-to-end training cells (20 steps, b = 50, dataset 1200): the
    // figure-harness construction path, on the zero-copy engine.
    for (label, epsilon, attack) in [
        ("training_20steps/clean", None, None),
        ("training_20steps/dp_mda_alie", Some(0.2), Some("alie")),
    ] {
        let cell = Cell {
            label: "baseline",
            epsilon,
            attack,
        };
        let exp = cell_experiment(cell, 50, 20, 1200).expect("baseline cell builds");
        let secs = time_median(|| {
            std::hint::black_box(exp.run(1).expect("baseline cell runs"));
        });
        entries.push((label.to_string(), secs));
    }

    // Aggregation hot path, allocating vs scratch-reusing (n = 11,
    // d = 1000, 50 rounds per sample).
    let mut rng = Prng::seed_from_u64(1);
    let grads: Vec<Vector> = (0..11).map(|_| rng.normal_vector(1_000, 1.0)).collect();
    for (id, f) in [("krum", 4usize), ("mda", 5), ("median", 5), ("bulyan", 2)] {
        let gar = build_gar(&ComponentSpec::new(id)).expect("built-in gar");
        let secs = time_median(|| {
            for _ in 0..50 {
                std::hint::black_box(gar.aggregate(&grads, f).expect("aggregates"));
            }
        });
        entries.push((format!("gar_50rounds_d1000/{id}/alloc"), secs));
        let mut scratch = GarScratch::new();
        let mut out = Vector::default();
        let secs = time_median(|| {
            for _ in 0..50 {
                gar.aggregate_into(&grads, f, &mut scratch, &mut out)
                    .expect("aggregates");
            }
            std::hint::black_box(out.l2_norm());
        });
        entries.push((format!("gar_50rounds_d1000/{id}/scratch"), secs));
    }

    write_json("BENCH_baseline.json", "dpbyz-bench-baseline/v1", &entries);

    // The kernel-layer companion artifact: scalar vs vectorized per
    // kernel, so the perf trajectory of the innermost loops accumulates
    // alongside the end-to-end baseline.
    let kernel = kernel_entries();
    write_json("BENCH_kernels.json", "dpbyz-bench-kernels/v1", &kernel);
}
