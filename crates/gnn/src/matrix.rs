//! Dense row-major `f32` matrices: the owned, reshape-in-place buffers the
//! layers and the model hand to [`crate::kernels`], plus Xavier
//! initialisation and the logistic sigmoid. All arithmetic on them runs in
//! the kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense row-major matrix of `f32`. `Default` is the empty `0×0` matrix.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix from a closure over `(row, col)`, filled into a preallocated
    /// buffer in row-major call order (the order matters for seeded
    /// initialisers like [`Matrix::xavier`]).
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = vec![0.0f32; rows * cols];
        let mut idx = 0usize;
        for r in 0..rows {
            for c in 0..cols {
                data[idx] = f(r, c);
                idx += 1;
            }
        }
        Matrix { rows, cols, data }
    }

    /// Matrix wrapping an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialised matrix.
    #[must_use]
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Convenience seeded Xavier initialisation.
    #[must_use]
    pub fn xavier_seeded(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing buffer.
    #[inline]
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, zero-filled, reusing the existing
    /// allocation whenever capacity allows. This is the workhorse of the
    /// zero-allocation training loop: after the first epoch every buffer
    /// has reached its steady-state capacity and no reshape allocates.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other`'s shape and contents into `self`, reusing the
    /// existing allocation whenever capacity allows.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Numerically stable logistic sigmoid.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_stability_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let a = Matrix::xavier_seeded(8, 8, 5);
        let b = Matrix::xavier_seeded(8, 8, 5);
        assert_eq!(a.data(), b.data());
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
        assert!(a.data().iter().any(|&v| v != 0.0));
    }
}
