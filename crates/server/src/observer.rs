//! Streaming run observation: per-step metrics pushed out of the engines
//! while training runs, instead of only the post-hoc [`RunHistory`].
//!
//! Observers hang off [`Trainer::observer`](crate::Trainer::observer) and
//! are invoked by the shared server core, so every engine streams
//! identical sequences — observation is read-only and never
//! touches the RNG streams, preserving the bit-identical reproducibility
//! contract.

use crate::metrics::RunHistory;
use dpbyz_tensor::Vector;

/// Everything the server knows about one completed step, borrowed straight
/// from the engine's state (post-update).
#[derive(Debug)]
pub struct StepMetrics<'a> {
    /// 1-based step `t`.
    pub step: u32,
    /// Average honest-batch loss at the pre-update model.
    pub train_loss: f64,
    /// Empirical VN ratio of the honest pre-noise gradients.
    pub vn_clean: f64,
    /// Empirical VN ratio of the final submission set the GAR aggregates
    /// (honest submissions after DP noise, Byzantine forgeries, drops).
    pub vn_submitted: f64,
    /// L2 norm of the honest pre-noise mean gradient.
    pub grad_norm: f64,
    /// Test accuracy, when this step was an evaluation step.
    pub test_accuracy: Option<f64>,
    /// Model parameters *after* this step's update.
    pub params: &'a Vector,
}

/// A callback sink for per-step training telemetry.
///
/// Implementations must be cheap or buffer internally: the engines invoke
/// [`RunObserver::on_step`] synchronously on the training path.
pub trait RunObserver: Send {
    /// Called once per training step, after the model update.
    fn on_step(&mut self, metrics: &StepMetrics<'_>);

    /// Called once when the run completes, with the assembled history.
    fn on_finish(&mut self, history: &RunHistory) {
        let _ = history;
    }
}

/// An observer that forwards each step to a closure — the no-boilerplate
/// way to stream metrics out of a run.
///
/// # Example
///
/// ```
/// use dpbyz_server::{FnObserver, RunObserver, StepMetrics};
///
/// let mut losses = Vec::new();
/// {
///     let mut obs = FnObserver::new(|m: &StepMetrics<'_>| losses.push(m.train_loss));
///     # let metrics = StepMetrics {
///     #     step: 1, train_loss: 0.5, vn_clean: 0.1, vn_submitted: 0.1,
///     #     grad_norm: 1.0, test_accuracy: None,
///     #     params: &dpbyz_tensor::Vector::zeros(1),
///     # };
///     obs.on_step(&metrics);
/// }
/// assert_eq!(losses, vec![0.5]);
/// ```
pub struct FnObserver<F: FnMut(&StepMetrics<'_>) + Send> {
    f: F,
}

impl<F: FnMut(&StepMetrics<'_>) + Send> FnObserver<F> {
    /// Wraps a closure as an observer.
    pub fn new(f: F) -> Self {
        FnObserver { f }
    }
}

impl<F: FnMut(&StepMetrics<'_>) + Send> RunObserver for FnObserver<F> {
    fn on_step(&mut self, metrics: &StepMetrics<'_>) {
        (self.f)(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        steps: u32,
        finishes: u32,
    }

    impl RunObserver for Counting {
        fn on_step(&mut self, metrics: &StepMetrics<'_>) {
            assert_eq!(metrics.step, self.steps + 1);
            self.steps += 1;
        }

        fn on_finish(&mut self, history: &RunHistory) {
            assert_eq!(history.train_loss.len() as u32, self.steps);
            self.finishes += 1;
        }
    }

    #[test]
    fn observer_object_safety_and_default_on_finish() {
        let mut boxed: Box<dyn RunObserver> = Box::new(FnObserver::new(|_m| {}));
        let params = Vector::zeros(2);
        boxed.on_step(&StepMetrics {
            step: 1,
            train_loss: 1.0,
            vn_clean: 0.0,
            vn_submitted: 0.0,
            grad_norm: 0.0,
            test_accuracy: None,
            params: &params,
        });
        // Default on_finish is a no-op and must not panic.
        boxed.on_finish(&RunHistory {
            seed: 0,
            train_loss: vec![1.0],
            test_accuracy: vec![],
            vn_submitted: vec![0.0],
            vn_clean: vec![0.0],
            grad_norm: vec![0.0],
            final_params: params.clone(),
            churn: crate::metrics::ChurnStats::default(),
        });
        let _ = Counting {
            steps: 0,
            finishes: 0,
        };
    }
}
