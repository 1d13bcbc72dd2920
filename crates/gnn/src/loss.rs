//! Loss functions with analytic gradients.
//!
//! Timing-variant pins are a small minority of all pins (the paper's Fig. 6
//! shows ~70 % of pins with *zero* sensitivity), so the classification loss
//! supports a positive-class weight to keep recall on variant pins high —
//! missing a variant pin costs timing accuracy, while a false positive only
//! costs a little model size.

use crate::matrix::sigmoid;

/// Numerically stable `log(1 + e^x)`.
fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        0.0
    } else {
        x.exp().ln_1p()
    }
}

/// Binary cross-entropy on logits, writing the per-node gradient into a
/// caller-provided buffer (all entries are written; masked-out nodes get
/// `0.0`). Returns the mean loss. `pos_weight` scales the loss (and
/// gradient) of positive labels.
///
/// # Panics
///
/// Panics if slice lengths disagree.
pub fn bce_with_logits_into(
    logits: &[f32],
    labels: &[f32],
    mask: Option<&[bool]>,
    pos_weight: f32,
    grad: &mut [f32],
) -> f32 {
    assert_eq!(logits.len(), labels.len());
    assert_eq!(grad.len(), logits.len());
    if let Some(m) = mask {
        assert_eq!(m.len(), logits.len());
    }
    let mut loss = 0.0f64;
    let mut n = 0usize;
    for i in 0..logits.len() {
        if let Some(m) = mask {
            if !m[i] {
                grad[i] = 0.0;
                continue;
            }
        }
        let z = logits[i];
        let y = labels[i];
        // L = w·y·softplus(−z) + (1−y)·softplus(z)
        loss += f64::from(pos_weight * y * softplus(-z) + (1.0 - y) * softplus(z));
        let s = sigmoid(z);
        grad[i] = (1.0 - y) * s - pos_weight * y * (1.0 - s);
        n += 1;
    }
    if n > 0 {
        let inv = 1.0 / n as f32;
        for g in grad.iter_mut() {
            *g *= inv;
        }
        (loss / n as f64) as f32
    } else {
        0.0
    }
}

/// Mean squared error, writing the gradient into a caller-provided buffer
/// (all entries are written; masked-out nodes get `0.0`). Returns the mean
/// loss.
///
/// # Panics
///
/// Panics if slice lengths disagree.
pub fn mse_into(preds: &[f32], labels: &[f32], mask: Option<&[bool]>, grad: &mut [f32]) -> f32 {
    assert_eq!(preds.len(), labels.len());
    assert_eq!(grad.len(), preds.len());
    if let Some(m) = mask {
        assert_eq!(m.len(), preds.len());
    }
    let mut loss = 0.0f64;
    let mut n = 0usize;
    for i in 0..preds.len() {
        if let Some(m) = mask {
            if !m[i] {
                grad[i] = 0.0;
                continue;
            }
        }
        let d = preds[i] - labels[i];
        loss += f64::from(d * d);
        grad[i] = 2.0 * d;
        n += 1;
    }
    if n > 0 {
        let inv = 1.0 / n as f32;
        for g in grad.iter_mut() {
            *g *= inv;
        }
        (loss / n as f64) as f32
    } else {
        0.0
    }
}

/// A sensible automatic positive-class weight: `#negatives / #positives`
/// clamped to `[1, 20]`.
#[must_use]
pub fn auto_pos_weight(labels: &[f32], mask: Option<&[bool]>) -> f32 {
    let mut pos = 0usize;
    let mut neg = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        if let Some(m) = mask {
            if !m[i] {
                continue;
            }
        }
        if y > 0.5 {
            pos += 1;
        } else {
            neg += 1;
        }
    }
    if pos == 0 {
        1.0
    } else {
        (neg as f32 / pos as f32).clamp(1.0, 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(mean loss, gradient)` through [`bce_with_logits_into`].
    fn bce(logits: &[f32], labels: &[f32], mask: Option<&[bool]>, w: f32) -> (f32, Vec<f32>) {
        let mut grad = vec![f32::NAN; logits.len()];
        let loss = bce_with_logits_into(logits, labels, mask, w, &mut grad);
        (loss, grad)
    }

    /// `(mean loss, gradient)` through [`mse_into`].
    fn mse(preds: &[f32], labels: &[f32]) -> (f32, Vec<f32>) {
        let mut grad = vec![f32::NAN; preds.len()];
        let loss = mse_into(preds, labels, None, &mut grad);
        (loss, grad)
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let logits = [0.3f32, -1.2, 2.0];
        let labels = [1.0f32, 0.0, 1.0];
        let w = 2.5;
        let (_, grad) = bce(&logits, &labels, None, w);
        let eps = 1e-3;
        for i in 0..3 {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let (fp, _) = bce(&lp, &labels, None, w);
            let (fm, _) = bce(&lm, &labels, None, w);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-3,
                "i={i}: {} vs {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn bce_perfect_prediction_is_near_zero() {
        let (l, _) = bce(&[20.0, -20.0], &[1.0, 0.0], None, 1.0);
        assert!(l < 1e-6);
        let (l, _) = bce(&[-20.0, 20.0], &[1.0, 0.0], None, 1.0);
        assert!(l > 10.0);
    }

    #[test]
    fn mask_excludes_nodes() {
        let logits = [0.0f32, 100.0];
        let labels = [0.0f32, 0.0];
        let mask = [true, false];
        let (l, g) = bce(&logits, &labels, Some(&mask), 1.0);
        assert!((l - softplus(0.0)).abs() < 1e-6);
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        let preds = [0.5f32, -0.2];
        let labels = [1.0f32, 0.0];
        let (_, grad) = mse(&preds, &labels);
        let eps = 1e-3;
        for i in 0..2 {
            let mut pp = preds;
            pp[i] += eps;
            let mut pm = preds;
            pm[i] -= eps;
            let numeric = (mse(&pp, &labels).0 - mse(&pm, &labels).0) / (2.0 * eps);
            assert!((grad[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn auto_pos_weight_balances_and_clamps() {
        let labels: Vec<f32> = (0..100).map(|i| if i < 10 { 1.0 } else { 0.0 }).collect();
        assert!((auto_pos_weight(&labels, None) - 9.0).abs() < 1e-6);
        let rare: Vec<f32> = (0..1000).map(|i| if i < 2 { 1.0 } else { 0.0 }).collect();
        assert_eq!(auto_pos_weight(&rare, None), 20.0, "clamped");
        let none: Vec<f32> = vec![0.0; 10];
        assert_eq!(auto_pos_weight(&none, None), 1.0);
    }

    #[test]
    fn empty_mask_yields_zero_loss() {
        let (l, g) = bce(&[1.0], &[1.0], Some(&[false]), 1.0);
        assert_eq!(l, 0.0);
        assert_eq!(g, vec![0.0]);
    }
}
