//! Dense row-major `f32` matrices with just enough linear algebra for
//! full-batch GNN training: GEMM, transpose-GEMM variants, element-wise
//! maps, and Xavier initialisation.

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

    /// `self · other` (standard GEMM; delegates to the blocked kernel).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::gemm(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            crate::kernels::KernelPolicy::default(),
        );
        out
    }

    /// `selfᵀ · other` without materialising the transpose (delegates to
    /// the chunk-reduced kernel).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let mut scratch = Vec::new();
        crate::kernels::gemm_tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            self.cols,
            &mut scratch,
            crate::kernels::KernelPolicy::default(),
        );
        out
    }

    /// `self · otherᵀ` without materialising the transpose (delegates to
    /// the blocked kernel).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::kernels::gemm_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
            &mut Vec::new(),
            crate::kernels::KernelPolicy::default(),
        );
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    #[must_use]
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Splits columns at `at`, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols`.
    #[must_use]
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols);
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Element-wise map into a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale_assign(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Element-wise product into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect(),
        }
    }

    /// Column sums (length-`cols` vector as a 1×cols matrix).
    #[must_use]
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c] += v;
            }
        }
        out
    }

    /// Adds a 1×cols row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_row_vec(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_mut(r).iter_mut().enumerate() {
                *v += bias.data[c];
            }
        }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// ReLU activation.
#[must_use]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU (with the 0-at-0 convention).
#[must_use]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
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

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        let want = {
            // aᵀ is 2x3
            let at = m(2, 3, &[1., 3., 5., 2., 4., 6.]);
            at.matmul(&b)
        };
        assert_eq!(a.t_matmul(&b).data(), want.data());
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 3, &[1., 1., 0., 0., 1., 1.]);
        let want = {
            let bt = m(3, 2, &[1., 0., 1., 1., 0., 1.]);
            a.matmul(&bt)
        };
        assert_eq!(a.matmul_t(&b).data(), want.data());
    }

    #[test]
    fn hcat_and_hsplit_round_trip() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 1, &[9., 8.]);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1., 2., 9.]);
        let (l, r) = c.hsplit(2);
        assert_eq!(l.data(), a.data());
        assert_eq!(r.data(), b.data());
    }

    #[test]
    fn col_sums_and_bias() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
        let mut b = a.clone();
        b.add_row_vec(&m(1, 3, &[10., 20., 30.]));
        assert_eq!(b.row(1), &[14., 25., 36.]);
    }

    #[test]
    fn sigmoid_stability_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let a = Matrix::xavier_seeded(8, 8, 5);
        let b = Matrix::xavier_seeded(8, 8, 5);
        assert_eq!(a.data(), b.data());
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
        assert!(a.norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
