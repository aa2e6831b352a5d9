//! LU decomposition with partial pivoting; used for inversion and determinants.

use crate::{LinalgError, Matrix};

/// LU decomposition with partial pivoting of a square matrix: `P·A = L·U`.
pub struct LuDecomposition {
    /// Combined storage: the strict lower triangle holds `L` (unit diagonal implied), the
    /// upper triangle (including the diagonal) holds `U`.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now sitting at position `i`.
    perm: Vec<usize>,
    /// Number of row swaps (for the determinant sign).
    swaps: usize,
}

impl LuDecomposition {
    /// Factorize a square matrix. Returns [`LinalgError::Singular`] if a pivot is (numerically)
    /// zero and [`LinalgError::NotSquare`] for non-square input.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (rows, cols) = a.shape();
        if rows != cols {
            return Err(LinalgError::NotSquare { rows, cols });
        }
        let n = rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0usize;

        for col in 0..n {
            // Partial pivoting: find the largest |entry| in this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in col + 1..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                swaps += 1;
            }
            let pivot = lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for j in col + 1..n {
                    let delta = factor * lu[(col, j)];
                    lu[(r, j)] -= delta;
                }
            }
        }
        Ok(LuDecomposition { lu, perm, swaps })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solve `A·x = b`.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                actual: (b.len(), 1),
            });
        }
        // Apply the permutation, then forward substitution (L has a unit diagonal).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for (j, &yj) in y.iter().enumerate().take(i) {
                sum -= self.lu[(i, j)] * yj;
            }
            y[i] = sum;
        }
        // Backward substitution on U.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.lu[(i, j)] * xj;
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of the original matrix (column-by-column solves against the identity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e[col] = 1.0;
            let x = self.solve(&e)?;
            for row in 0..n {
                inv[(row, col)] = x[row];
            }
            e[col] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn determinant_known_values() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - (-6.0)).abs() < 1e-10);

        let b = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]);
        assert!((LuDecomposition::new(&b).unwrap().determinant() - 24.0).abs() < 1e-10);
    }

    #[test]
    fn determinant_identity_is_one() {
        let lu = LuDecomposition::new(&Matrix::identity(7)).unwrap();
        assert!((lu.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_known_system() {
        // x + 2y = 5 ; 3x - y = 1  =>  x = 1, y = 2
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[5.0, 1.0])
            .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // A zero in the top-left forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[3.0, 4.0])
            .unwrap();
        assert!((x[0] - 4.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrices_are_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular)
        ));
        let z = Matrix::zeros(3, 3);
        assert!(matches!(
            LuDecomposition::new(&z),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn solve_validates_rhs_length() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn inverse_matches_hand_computed() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = LuDecomposition::new(&a).unwrap().inverse().unwrap();
        let expected = Matrix::from_rows(&[&[0.6, -0.7], &[-0.2, 0.4]]);
        assert!(inv.approx_eq(&expected, 1e-10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_solve_then_multiply_recovers_rhs(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::random_invertible(8, &mut rng);
            let b: Vec<f64> = (0..8).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
            let back = a.matvec(&x).unwrap();
            for (u, v) in back.iter().zip(b.iter()) {
                prop_assert!((u - v).abs() < 1e-6, "residual too large: {} vs {}", u, v);
            }
        }

        #[test]
        fn prop_determinant_of_product_is_product_of_determinants(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::random_invertible(5, &mut rng);
            let b = Matrix::random_invertible(5, &mut rng);
            let da = LuDecomposition::new(&a).unwrap().determinant();
            let db = LuDecomposition::new(&b).unwrap().determinant();
            let dab = LuDecomposition::new(&a.matmul(&b).unwrap()).unwrap().determinant();
            prop_assert!((dab - da * db).abs() < 1e-6 * (1.0 + dab.abs()));
        }
    }
}
