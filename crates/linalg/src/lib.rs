//! # mkse-linalg — dense matrix algebra for the MRSE baseline
//!
//! The paper compares its bit-index scheme against Cao et al.'s MRSE ("Privacy-preserving
//! multi-keyword ranked search over encrypted cloud data", INFOCOM 2011), which encrypts
//! dictionary-sized index vectors by multiplying them with two secret invertible
//! `(n+2)×(n+2)` matrices (the *secure kNN* technique). Reproducing that baseline — and its
//! cost profile, which is exactly what §8.1 of the paper measures — needs a small dense
//! linear-algebra substrate: matrix multiplication, LU decomposition with partial pivoting,
//! inversion, and generation of random invertible matrices.
//!
//! Everything operates on `f64` and is deliberately straightforward (no blocking, no SIMD):
//! the *baseline's* cost being cubic/quadratic is the point of the comparison, and a heavily
//! optimised BLAS would only shift constants.

#![forbid(unsafe_code)]

pub mod lu;
pub mod matrix;
pub mod vector;

pub use lu::LuDecomposition;
pub use matrix::Matrix;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible for the requested operation.
    DimensionMismatch {
        expected: (usize, usize),
        actual: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) and cannot be inverted.
    Singular,
    /// The matrix is not square where a square matrix is required.
    NotSquare { rows: usize, cols: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LinalgError::DimensionMismatch {
            expected: (2, 3),
            actual: (3, 2),
        };
        assert!(format!("{e}").contains("2x3"));
        assert!(!format!("{}", LinalgError::Singular).is_empty());
        assert!(format!("{}", LinalgError::NotSquare { rows: 2, cols: 5 }).contains("2x5"));
    }
}
