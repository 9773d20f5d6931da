//! Reproducibility contracts: seeded determinism and engine equivalence.

use dpbyz_core::pipeline::{Experiment, FigureConfig};
use dpbyz_core::AttackKind;

fn experiment(backend: &str) -> Experiment {
    let mut exp = Experiment::paper_figure(FigureConfig {
        batch_size: 20,
        epsilon: Some(0.2),
        attack: Some(AttackKind::PAPER_ALIE),
        steps: 25,
        dataset_size: 600,
        ..FigureConfig::default()
    })
    .expect("valid configuration");
    exp.backend = backend.into();
    exp
}

#[test]
fn same_seed_same_history() {
    let exp = experiment("sequential");
    assert_eq!(exp.run(42).unwrap(), exp.run(42).unwrap());
}

#[test]
fn different_seed_different_history() {
    let exp = experiment("sequential");
    assert_ne!(exp.run(1).unwrap(), exp.run(2).unwrap());
}

#[test]
fn sim_engine_bit_identical_to_sequential() {
    // The strongest cross-engine contract: identical histories for the
    // full DP + attack configuration, several seeds, with the simulated
    // network carrying every round over the wire protocol.
    dpbyz_net::install();
    for seed in [1u64, 7, 99] {
        let seq = experiment("sequential").run(seed).unwrap();
        let sim = experiment("sim").run(seed).unwrap();
        assert_eq!(seq, sim, "engines diverged at seed {seed}");
    }
}

#[test]
fn dataset_generation_is_independent_of_run_seed() {
    // The data seed is fixed in the spec: two run seeds must train on the
    // same dataset (the paper trains all seeds on the same split).
    let exp = experiment("sequential");
    let h1 = exp.run(1).unwrap();
    let h2 = exp.run(2).unwrap();
    // Same dataset + same init (seeded separately from data) means the
    // first-step loss (before any stochastic divergence can compound)
    // should be computed over batches from the same pool — weak check:
    // losses are in the same ballpark.
    assert!((h1.train_loss[0] - h2.train_loss[0]).abs() < 0.2);
}

#[test]
fn full_history_equality_covers_all_metrics() {
    // Guard against a metric being recorded nondeterministically.
    let a = experiment("sequential").run(5).unwrap();
    let b = experiment("sequential").run(5).unwrap();
    assert_eq!(a.train_loss, b.train_loss);
    assert_eq!(a.test_accuracy, b.test_accuracy);
    assert_eq!(a.vn_clean, b.vn_clean);
    assert_eq!(a.vn_submitted, b.vn_submitted);
    assert_eq!(a.grad_norm, b.grad_norm);
    assert_eq!(a.final_params, b.final_params);
}
