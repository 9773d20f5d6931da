//! The chaos acceptance cells at large d. Above the sim's fan-out
//! crossover the simulated workers compute their steps when a `STEP` is
//! broadcast, split across threads, instead of one by one on delivery.
//! These cells run Theorem 1 mean estimation (ALIE against `median`,
//! DP noise on) at d = 10⁴ through the same schedules the d = 69 suites
//! pin, so that path answers to the same contract: crash-free chaos is
//! digest-invisible, crash-and-rejoin equals a straggler, and late joins
//! and bounded staleness replay bit for bit.

use dpbyz_core::pipeline::Experiment;
use dpbyz_core::ComponentSpec;
use dpbyz_dp::PrivacyBudget;
use dpbyz_net::{FaultPlan, SimBackend};
use dpbyz_server::RunScratch;

/// Model dimension: above the sim's fan-out crossover.
const DIM: usize = 10_000;
const STEPS: u32 = 6;
/// Past every (virtual) step deadline: a report held this long is
/// dropped from its round.
const PAST_DEADLINE_MS: u64 = 20_000;

fn experiment() -> Experiment {
    let budget = PrivacyBudget::new(0.2, 1e-6).unwrap();
    let mut exp = Experiment::theorem1(DIM, 1.0, Some(budget), STEPS, 1, 11).unwrap();
    exp.attack = Some(ComponentSpec::new("alie"));
    exp.gar = ComponentSpec::new("median");
    exp.config.n_byzantine = 5;
    exp
}

/// A sim backend that keeps going with one honest worker missing.
fn short_handed(n_honest: usize) -> SimBackend {
    SimBackend::from_spec(
        &ComponentSpec::new("sim")
            .with("min_workers", (n_honest - 1) as u64)
            .with("quorum", (n_honest - 1) as u64),
    )
}

#[test]
fn large_d_chaos_is_digest_equal_to_sequential_and_replays() {
    dpbyz_net::install();
    let run_seed = 17;
    let mut exp = experiment();
    let reference = exp.run(run_seed).unwrap();
    for chaos in [1u64, 0xDEAD_BEEF] {
        exp.backend = ComponentSpec::new("sim").with("chaos", chaos);
        let first = exp.run(run_seed).unwrap();
        let second = exp.run(run_seed).unwrap();
        assert_eq!(first, second, "chaos seed {chaos:#x}: replay diverged");
        assert_eq!(
            first.digest(),
            reference.digest(),
            "chaos seed {chaos:#x}: crash-free chaos must be digest-invisible"
        );
    }
}

#[test]
fn large_d_crash_and_rejoin_equals_the_straggler_schedule() {
    let exp = experiment();
    let n = exp.config.n_honest();
    let w = (n - 1) as u32;
    let backend = short_handed(n);
    let mut scratch = RunScratch::new();

    let straggler_plan = FaultPlan::clean(n).with_grad_delay(w, 3, 4, PAST_DEADLINE_MS);
    let straggler = backend
        .run_with_plan(&exp, 11, &straggler_plan, None, &mut scratch)
        .unwrap();
    let crash_plan = FaultPlan::clean(n).with_crash(w, 2, 5);
    let rejoined = backend
        .run_with_plan(&exp, 11, &crash_plan, None, &mut scratch)
        .unwrap();
    assert!(rejoined.churn.dropped_rounds[w as usize] > 0);
    assert_eq!(
        straggler, rejoined,
        "crash-and-rejoin diverged from the straggler schedule"
    );
}

#[test]
fn large_d_late_join_replays_bit_identically() {
    let exp = experiment();
    let n = exp.config.n_honest();
    let backend = short_handed(n);
    let mut scratch = RunScratch::new();

    let plan = FaultPlan::from_seed(8, n).with_late_join((n - 1) as u32, 2);
    let first = backend
        .run_with_plan(&exp, 17, &plan, None, &mut scratch)
        .unwrap();
    let second = backend
        .run_with_plan(&exp, 17, &plan, None, &mut scratch)
        .unwrap();
    assert_eq!(
        first.churn.joined_fresh, 1,
        "exactly one fresh mid-run attach"
    );
    assert_eq!(first, second, "late join replay diverged");
}

/// The staleness suite's straggler schedule under chaos: the step-2 and
/// step-5 reports land one round late and are admitted at `k = 1`.
#[test]
fn large_d_staleness_window_one_replays_under_a_straggler() {
    let mut exp = experiment();
    exp.config.staleness_window = 1;
    exp.config.staleness_damping = 0.5;
    let n = exp.config.n_honest();
    let w = (n - 1) as u32;
    let backend = short_handed(n);
    let mut scratch = RunScratch::new();

    let plan = FaultPlan::from_seed(13, n)
        .with_grad_delay(w, 2, 2, 11_500)
        .with_grad_delay(w, 3, 3, 13_000)
        .with_grad_delay(w, 5, 6, 11_500);
    let first = backend
        .run_with_plan(&exp, 21, &plan, None, &mut scratch)
        .unwrap();
    let second = backend
        .run_with_plan(&exp, 21, &plan, None, &mut scratch)
        .unwrap();
    assert!(
        first.churn.late_admits[w as usize] > 0,
        "the straggler's late reports must be admitted"
    );
    assert_eq!(first, second, "k = 1 straggler replay diverged");
}
