//! Robustness matrix: every robust GAR against every attack, no DP.
//! Averaging is the control that must fail.

use dpbyz_core::pipeline::{Experiment, FigureConfig, Workload};
use dpbyz_core::registry::ComponentSpec;
use dpbyz_core::{AttackKind, GarKind, MechanismKind};
use dpbyz_server::TrainingConfig;

/// One matrix cell over registry specs (the open path the new components
/// use — no `*Kind` variants exist for them). Returns the sequential
/// run's tail loss after asserting the simulated network reproduces it
/// bit-for-bit.
fn run_spec_attack(gar: ComponentSpec, attack: ComponentSpec, f: usize) -> f64 {
    let config = TrainingConfig::builder()
        .workers(11, f)
        .batch_size(25)
        .steps(120)
        .lr(dpbyz_server::LrSchedule::Constant(2.0))
        .momentum(0.99)
        .momentum_mode(dpbyz_server::MomentumMode::Worker)
        .clip(1e-2)
        .eval_every(0)
        .build()
        .expect("valid");
    let mut exp = Experiment {
        workload: Workload::PhishingLike {
            data_seed: 0xD1B2_2021,
            size: 1500,
        },
        config,
        gar,
        attack: Some(attack),
        budget: None,
        mechanism: MechanismKind::Gaussian.spec(),
        backend: "sequential".into(),
        dp_reference_g_max: None,
    };
    let sequential = exp.run(1).expect("runs");
    dpbyz_net::install();
    exp.backend = "sim".into();
    let sim = exp.run(1).expect("sim runs");
    assert_eq!(
        sequential,
        sim,
        "{}/{} diverged across engines",
        exp.gar.id,
        exp.attack.as_ref().unwrap().id
    );
    sequential.tail_loss(10)
}

fn run_gar_attack(gar: GarKind, attack: AttackKind, f: usize) -> f64 {
    let base = Experiment::paper_figure(FigureConfig {
        batch_size: 25,
        epsilon: None,
        attack: Some(attack),
        steps: 120,
        dataset_size: 1500,
        ..FigureConfig::default()
    })
    .expect("valid");
    let config = TrainingConfig::builder()
        .workers(11, f)
        .batch_size(25)
        .steps(120)
        .lr(base.config.lr)
        .momentum(base.config.momentum)
        .clip(base.config.clip)
        .eval_every(0)
        .build()
        .expect("valid");
    let exp = Experiment {
        workload: Workload::PhishingLike {
            data_seed: 0xD1B2_2021,
            size: 1500,
        },
        config,
        gar: gar.spec(),
        attack: Some(attack.spec()),
        budget: None,
        mechanism: MechanismKind::Gaussian.spec(),
        backend: "sequential".into(),
        dp_reference_g_max: None,
    };
    exp.run(1).expect("runs").tail_loss(10)
}

fn clean_reference() -> f64 {
    Experiment::paper_figure(FigureConfig {
        batch_size: 25,
        epsilon: None,
        attack: None,
        steps: 120,
        dataset_size: 1500,
        ..FigureConfig::default()
    })
    .expect("valid")
    .run(1)
    .expect("runs")
    .tail_loss(10)
}

#[test]
fn every_robust_gar_survives_large_norm_attack() {
    // The naive attack is table stakes: all robust rules must shrug it off.
    let clean = clean_reference();
    for (gar, f) in [
        (GarKind::Mda, 5),
        (GarKind::Krum, 4),
        (GarKind::MultiKrum, 4),
        (GarKind::Median, 5),
        (GarKind::TrimmedMean, 5),
        (GarKind::Meamed, 5),
        (GarKind::Phocas, 5),
        (GarKind::Bulyan, 2),
    ] {
        let loss = run_gar_attack(gar, AttackKind::LargeNorm { scale: 1e6 }, f);
        assert!(
            loss.is_finite() && loss < clean + 0.2,
            "{} failed under large-norm: {loss} (clean {clean})",
            gar.name()
        );
    }
}

#[test]
fn mda_survives_both_paper_attacks() {
    let clean = clean_reference();
    for attack in [AttackKind::PAPER_ALIE, AttackKind::PAPER_FOE] {
        let loss = run_gar_attack(GarKind::Mda, attack, 5);
        assert!(
            loss < clean + 0.2,
            "MDA failed under {}: {loss} (clean {clean})",
            attack.name()
        );
    }
}

#[test]
fn median_family_survives_sign_flip() {
    let clean = clean_reference();
    for gar in [GarKind::Median, GarKind::TrimmedMean, GarKind::Phocas] {
        let loss = run_gar_attack(gar, AttackKind::SignFlip, 5);
        assert!(
            loss < clean + 0.25,
            "{} failed under sign-flip: {loss}",
            gar.name()
        );
    }
}

#[test]
fn zero_attack_slows_but_does_not_poison() {
    // f zero-gradients dilute the aggregate but cannot steer it.
    let loss = run_gar_attack(GarKind::Mda, AttackKind::Zero, 5);
    assert!(loss < 0.3, "zero attack poisoned MDA: {loss}");
}

/// The scenario-pack components crossed: centered clipping and bucketing
/// against IPM and the norm-rescaling probe (plus the table-stakes
/// large-norm), each cell also asserting sequential ≡ sim.
#[test]
fn centered_clipping_survives_the_new_attack_matrix() {
    let clean = clean_reference();
    // τ at the protocol's G_max: honest residuals pass, a forged vector
    // can pull the center at most 5τ/11 per iteration.
    let cc = || ComponentSpec::new("centered-clipping").with("tau", 0.01);
    for attack in [
        ComponentSpec::new("ipm").with("epsilon", 0.5),
        ComponentSpec::new("rescaling").with("norm", -0.01),
        ComponentSpec::new("large-norm"),
        ComponentSpec::new("alie").with("nu", 1.5),
    ] {
        let id = attack.id.clone();
        let loss = run_spec_attack(cc(), attack, 5);
        assert!(
            loss.is_finite() && loss < clean + 0.2,
            "centered-clipping failed under {id}: {loss} (clean {clean})"
        );
    }
}

#[test]
fn bucketed_median_survives_the_new_attack_matrix() {
    let clean = clean_reference();
    // Median over ⌈11/2⌉ = 6 buckets tolerates f = 2.
    let bucketing = || {
        ComponentSpec::new("bucketing")
            .with("s", 2u64)
            .with("inner", "median")
    };
    for attack in [
        ComponentSpec::new("ipm").with("epsilon", 0.5),
        ComponentSpec::new("rescaling").with("norm", -0.01),
        ComponentSpec::new("large-norm"),
    ] {
        let id = attack.id.clone();
        let loss = run_spec_attack(bucketing(), attack, 2);
        assert!(
            loss.is_finite() && loss < clean + 0.2,
            "bucketed median failed under {id}: {loss} (clean {clean})"
        );
    }
}

#[test]
fn established_gars_survive_ipm_and_rescaling() {
    // The new attacks against the paper's rules: stealthy IPM and the
    // fixed-norm probe are both rejected by the selection/median family.
    let clean = clean_reference();
    for (gar, f) in [(GarKind::Mda, 5), (GarKind::Median, 5), (GarKind::Krum, 4)] {
        for attack in [
            ComponentSpec::new("ipm").with("epsilon", 0.5),
            ComponentSpec::new("rescaling").with("norm", -1.0),
        ] {
            let id = attack.id.clone();
            let loss = run_spec_attack(gar.spec(), attack, f);
            assert!(
                loss < clean + 0.2,
                "{} failed under {id}: {loss} (clean {clean})",
                gar.name()
            );
        }
    }
}

#[test]
fn untuned_clipping_radius_is_defeated_by_the_rescaling_probe() {
    // The contrast cell that motivates the clipping-study pack: a forged
    // vector placed at an untuned radius (τ = 1 default, ‖forged‖ = 1)
    // evades shrinking and drags the aggregate — the defense only works
    // when τ matches the honest gradient scale.
    let clean = clean_reference();
    let loss = run_spec_attack(
        ComponentSpec::new("centered-clipping"),
        ComponentSpec::new("rescaling").with("norm", -1.0),
        5,
    );
    assert!(
        loss > clean + 0.2,
        "expected the untuned radius to be beaten: {loss} (clean {clean})"
    );
}
