//! Dense row-major `f64` matrices.

use crate::{LinalgError, LuDecomposition};
use rand::Rng;

/// A dense, row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Fill a matrix with uniform random entries in `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix { rows, cols, data }
    }

    /// Generate a random *invertible* `n × n` matrix (retrying until the determinant is
    /// comfortably away from zero). This is how the MRSE baseline generates its secret keys.
    pub fn random_invertible<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        loop {
            let m = Self::random(n, n, rng);
            if let Ok(lu) = LuDecomposition::new(&m) {
                if lu.determinant().abs() > 1e-9 {
                    return m;
                }
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix × matrix product.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, other.cols),
                actual: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix × column-vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                actual: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = self.row(i);
            *slot = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Transposed-matrix × column-vector product (`Mᵀ·v`) without materializing the transpose.
    #[cfg(test)]
    fn transpose_matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != v.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                actual: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            let row = self.row(i);
            for j in 0..self.cols {
                out[j] += row[j] * vi;
            }
        }
        Ok(out)
    }

    /// Invert a square matrix via LU decomposition.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        LuDecomposition::new(self)?.inverse()
    }

    /// Maximum absolute difference between two matrices of equal shape.
    fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` if all entries differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_times_matrix_is_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert!(i3.matmul(&m).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(c.approx_eq(&Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.transpose_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matvec_known_value() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
    }

    #[test]
    fn transpose_matvec_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(5, 7, &mut rng);
        let v: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let fast = a.transpose_matvec(&v).unwrap();
        let slow = a.transpose().matvec(&v).unwrap();
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random(4, 6, &mut rng);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = Matrix::identity(5);
        assert!(i.inverse().unwrap().approx_eq(&i, 1e-12));
    }

    #[test]
    fn random_invertible_times_inverse_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 8, 20] {
            let m = Matrix::random_invertible(n, &mut rng);
            let inv = m.inverse().unwrap();
            let prod = m.matmul(&inv).unwrap();
            assert!(prod.approx_eq(&Matrix::identity(n), 1e-8), "n = {n}");
        }
    }

    #[test]
    fn singular_matrix_inverse_fails() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(m.inverse(), Err(LinalgError::Singular));
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(3, 4);
        m[(2, 1)] = 7.5;
        assert_eq!(m[(2, 1)], 7.5);
        assert_eq!(m.row(2), &[0.0, 7.5, 0.0, 0.0]);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.data().len(), 12);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matmul_associative(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::random(3, 4, &mut rng);
            let b = Matrix::random(4, 2, &mut rng);
            let c = Matrix::random(2, 5, &mut rng);
            let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
            let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
            prop_assert!(left.approx_eq(&right, 1e-9));
        }

        #[test]
        fn prop_inverse_round_trip(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Matrix::random_invertible(6, &mut rng);
            let inv = m.inverse().unwrap();
            prop_assert!(m.matmul(&inv).unwrap().approx_eq(&Matrix::identity(6), 1e-7));
            prop_assert!(inv.matmul(&m).unwrap().approx_eq(&Matrix::identity(6), 1e-7));
        }

        #[test]
        fn prop_transpose_distributes_over_product(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::random(3, 4, &mut rng);
            let b = Matrix::random(4, 5, &mut rng);
            let left = a.matmul(&b).unwrap().transpose();
            let right = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(left.approx_eq(&right, 1e-10));
        }
    }
}
