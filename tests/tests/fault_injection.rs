//! Fault injection (§2.1: non-received gradients become zero vectors) and
//! the §7 extensions, exercised end-to-end across both engines.

use dpbyz_core::pipeline::{Experiment, FigureConfig};
use dpbyz_core::AttackKind;
use dpbyz_server::BatchGrowth;

fn base(steps: u32) -> Experiment {
    Experiment::paper_figure(FigureConfig {
        batch_size: 20,
        epsilon: Some(0.2),
        attack: Some(AttackKind::PAPER_ALIE),
        steps,
        dataset_size: 800,
        ..FigureConfig::default()
    })
    .expect("valid configuration")
}

#[test]
fn training_survives_moderate_drops() {
    let mut exp = Experiment::paper_figure(FigureConfig {
        batch_size: 50,
        epsilon: None,
        attack: None,
        steps: 150,
        dataset_size: 2000,
        ..FigureConfig::default()
    })
    .expect("valid");
    exp.config.drop_rate = 0.2;
    let h = exp.run(1).expect("runs");
    assert!(
        h.tail_loss(10) < h.train_loss[0] * 0.8,
        "training failed under 20% drops"
    );
    assert!(h.final_accuracy().unwrap() > 0.75);
}

#[test]
fn sim_equals_sequential_with_all_extensions() {
    // Drops + EMA + batch growth + DP + attack, both engines: the
    // strongest determinism contract in the workspace.
    dpbyz_net::install();
    let configure = |backend: &str| {
        let mut exp = base(15);
        exp.config.drop_rate = 0.25;
        exp.config.gradient_ema = Some(0.9);
        exp.config.batch_growth = Some(BatchGrowth {
            factor: 1.05,
            max: 100,
        });
        exp.backend = backend.into();
        exp
    };
    for seed in [1u64, 13] {
        let seq = configure("sequential").run(seed).expect("sequential runs");
        let sim = configure("sim").run(seed).expect("sim runs");
        assert_eq!(seq, sim, "engines diverged at seed {seed}");
    }
}

#[test]
fn drops_are_orthogonal_to_attack_rng() {
    // Enabling faults must not perturb the attack's random stream: the
    // forged gradients of a deterministic attack (ALIE is
    // deterministic given honest submissions) depend only on honest
    // submissions, and those are computed before drops. Weak observable:
    // first-step train loss (computed pre-drop) matches exactly.
    let no_drops = base(5).run(3).expect("runs");
    let mut dropped = base(5);
    dropped.config.drop_rate = 0.5;
    let with_drops = dropped.run(3).expect("runs");
    assert_eq!(no_drops.train_loss[0], with_drops.train_loss[0]);
    assert_eq!(no_drops.vn_clean[0], with_drops.vn_clean[0]);
    // But the trajectories must diverge afterwards.
    assert_ne!(no_drops.train_loss, with_drops.train_loss);
}

#[test]
fn heavy_drops_degrade_attacked_dp_training_further() {
    let clean = base(120).run(1).expect("runs").tail_loss(10);
    let mut faulty = base(120);
    faulty.config.drop_rate = 0.6;
    let dropped = faulty.run(1).expect("runs").tail_loss(10);
    // 60% loss of honest gradients under DP+ALIE cannot help; allow
    // equality-ish noise but no miracle improvement.
    assert!(
        dropped > clean - 0.05,
        "drops implausibly improved training: {clean} -> {dropped}"
    );
}
