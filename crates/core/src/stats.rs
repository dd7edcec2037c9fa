//! Evaluation statistics: main-exit evaluation, exit fractions, hard-class
//! accuracy, easy/hard detection accuracy and the Fig. 5 error taxonomy.

use crate::infer::{ExitPoint, InstanceRecord};
use crate::model::MeaNet;
use mea_data::{ClassDict, Dataset};
use mea_metrics::{ConfusionMatrix, ErrorBreakdown};
use mea_nn::layer::Mode;
use mea_tensor::ops;

/// Result of evaluating the main exit over a dataset.
#[derive(Debug, Clone)]
pub struct MainEval {
    /// Confusion matrix over all classes.
    pub confusion: ConfusionMatrix,
    /// Per-instance prediction entropy at the main exit.
    pub entropies: Vec<f32>,
    /// Per-instance predicted class.
    pub predictions: Vec<usize>,
    /// Per-instance true class.
    pub truth: Vec<usize>,
}

impl MainEval {
    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Per-instance correctness flags.
    pub(crate) fn correct_flags(&self) -> Vec<bool> {
        self.predictions.iter().zip(&self.truth).map(|(p, t)| p == t).collect()
    }

    /// The Fig. 5 error taxonomy under a hard-class dictionary.
    pub fn error_breakdown(&self, dict: &ClassDict) -> ErrorBreakdown {
        ErrorBreakdown::from_predictions(&self.truth, &self.predictions, |c| dict.contains(c))
    }
}

/// Evaluates the main block + main exit over `data` (eval mode, batched).
pub fn evaluate_main_exit(net: &mut MeaNet, data: &Dataset, batch_size: usize) -> MainEval {
    let mut confusion = ConfusionMatrix::new(data.num_classes);
    let mut entropies = Vec::with_capacity(data.len());
    let mut predictions = Vec::with_capacity(data.len());
    for (images, labels) in data.batches(batch_size) {
        let logits = net.main_logits(&images, Mode::Eval);
        let probs = ops::softmax_rows(&logits);
        entropies.extend(ops::entropy_rows(&probs));
        let preds = probs.argmax_rows();
        for (&t, &p) in labels.iter().zip(&preds) {
            confusion.record(t, p);
        }
        predictions.extend(preds);
    }
    MainEval { confusion, entropies, predictions, truth: data.labels.clone() }
}

/// Aggregate statistics over a full Algorithm-2 inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitStats {
    /// Instances that exited at the main block.
    pub main_exits: usize,
    /// Instances that exited at the extension block.
    pub extension_exits: usize,
    /// Instances sent to the cloud.
    pub cloud_exits: usize,
    /// Overall accuracy of the final predictions.
    pub accuracy: f64,
    /// Accuracy restricted to hard-class instances.
    pub hard_class_accuracy: f64,
    /// Accuracy of the easy/hard *detection* (`IsHard(main prediction)`
    /// versus whether the true class is hard) — Table III/IV's metric.
    pub detection_accuracy: f64,
}

impl ExitStats {
    /// Computes the aggregate from per-instance records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn from_records(records: &[InstanceRecord], dict: &ClassDict) -> Self {
        assert!(!records.is_empty(), "no inference records");
        let n = records.len();
        let mut exits = [0usize; 3];
        let mut correct = 0usize;
        let (mut hard_total, mut hard_correct) = (0usize, 0usize);
        let mut detect_correct = 0usize;
        for r in records {
            match r.exit {
                ExitPoint::Main => exits[0] += 1,
                ExitPoint::Extension => exits[1] += 1,
                ExitPoint::Cloud => exits[2] += 1,
            }
            if r.correct {
                correct += 1;
            }
            let truth_hard = dict.contains(r.truth);
            if truth_hard {
                hard_total += 1;
                if r.correct {
                    hard_correct += 1;
                }
            }
            if r.detected_hard == truth_hard {
                detect_correct += 1;
            }
        }
        ExitStats {
            main_exits: exits[0],
            extension_exits: exits[1],
            cloud_exits: exits[2],
            accuracy: correct as f64 / n as f64,
            hard_class_accuracy: if hard_total == 0 { 0.0 } else { hard_correct as f64 / hard_total as f64 },
            detection_accuracy: detect_correct as f64 / n as f64,
        }
    }

    /// Fraction of instances sent to the cloud (`β` in Table I).
    pub fn cloud_fraction(&self) -> f64 {
        let n = self.main_exits + self.extension_exits + self.cloud_exits;
        self.cloud_exits as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(truth: usize, pred: usize, exit: ExitPoint, detected_hard: bool) -> InstanceRecord {
        InstanceRecord {
            truth,
            prediction: pred,
            exit,
            entropy: 0.5,
            main_prediction: pred,
            detected_hard,
            correct: truth == pred,
        }
    }

    #[test]
    fn exit_stats_aggregate() {
        let dict = ClassDict::new(&[2, 3]);
        let records = vec![
            record(0, 0, ExitPoint::Main, false),     // easy correct
            record(2, 2, ExitPoint::Extension, true), // hard correct
            record(3, 2, ExitPoint::Extension, true), // hard wrong
            record(1, 3, ExitPoint::Cloud, true),     // easy wrong, detection wrong
        ];
        let s = ExitStats::from_records(&records, &dict);
        assert_eq!((s.main_exits, s.extension_exits, s.cloud_exits), (1, 2, 1));
        assert!((s.accuracy - 0.5).abs() < 1e-12);
        assert!((s.hard_class_accuracy - 0.5).abs() < 1e-12);
        assert!((s.detection_accuracy - 0.75).abs() < 1e-12);
        assert!((s.cloud_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn main_eval_class_restriction() {
        let eval = MainEval {
            confusion: ConfusionMatrix::from_predictions(3, &[0, 1, 2, 2], &[0, 2, 2, 1]),
            entropies: vec![0.1; 4],
            predictions: vec![0, 2, 2, 1],
            truth: vec![0, 1, 2, 2],
        };
        assert!((eval.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(eval.correct_flags(), vec![true, false, true, false]);
    }
}
