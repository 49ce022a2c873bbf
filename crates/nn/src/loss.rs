//! Softmax cross-entropy loss.

use crate::tensor::Tensor;

/// Computes softmax probabilities row-wise over `[B, L]` logits.
pub(crate) fn softmax(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    for b in 0..out.batch() {
        let row = out.item_mut(b);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    out
}

/// Mean cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(loss, grad)` where `grad = (softmax(logits) − onehot) / B`,
/// ready to feed into the network's backward pass.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is
/// out of range.
pub(crate) fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let batch = logits.batch();
    let classes = logits.stride0();
    assert_eq!(labels.len(), batch, "label count must equal batch size");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0;
    for (b, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let p = probs.item(b)[label].max(1e-12);
        loss -= p.ln();
        let row = grad.item_mut(b);
        row[label] -= 1.0;
        for g in row.iter_mut() {
            *g /= batch as f32;
        }
    }
    (loss / batch as f32, grad)
}

/// Index of the per-row maximum (predicted class) for `[B, L]` logits.
pub(crate) fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    (0..logits.batch())
        .map(|b| {
            logits
                .item(b)
                .iter()
                .enumerate()
                .max_by(|a, c| a.1.total_cmp(c.1))
                .map(|(i, _)| i)
                .expect("non-empty row")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax(&logits);
        for b in 0..2 {
            let sum: f32 = p.item(b).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(p.item(b).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]));
        let b = softmax(&Tensor::from_vec(&[1, 3], vec![101.0, 102.0, 103.0]));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let confident = Tensor::from_vec(&[1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = cross_entropy(&confident, &[0]);
        assert!(loss < 1e-6);
        let wrong = Tensor::from_vec(&[1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = cross_entropy(&wrong, &[1]);
        assert!(loss > 10.0);
    }

    #[test]
    fn gradient_matches_numeric() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..6 {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let numeric =
                (cross_entropy(&plus, &labels).0 - cross_entropy(&minus, &labels).0) / (2.0 * eps);
            assert!((grad.data()[i] - numeric).abs() < 1e-3, "grad[{i}]");
        }
    }

    #[test]
    fn argmax_picks_largest() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 5.0, 2.0, 9.0, 0.0, 3.0]);
        assert_eq!(argmax_rows(&logits), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "label count")]
    fn mismatched_labels_panic() {
        let logits = Tensor::zeros(&[2, 3]);
        let _ = cross_entropy(&logits, &[0]);
    }
}
