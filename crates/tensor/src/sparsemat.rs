//! Sparse matrices in triplet + CSR form, used for matricized tensors.
//!
//! The Tucker-ALS factor update needs the leading left singular vectors of
//! `Y₍₁₎`, a tall sparse matrix. [`SparseMat`] implements
//! [`haten2_linalg::LinOp`] so the small-side Gram eigensolve can build
//! `YᵀY` from products with it and its transpose without densifying —
//! mirroring how HaTen2 never materializes dense intermediates.

use crate::{Result, TensorError};
use haten2_linalg::{LinOp, LinalgError, Mat};

/// A sparse `rows × cols` matrix stored as sorted triples with a CSR-style
/// row index for fast row-major traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMat {
    rows: u64,
    cols: u64,
    /// Sorted by (row, col); duplicates merged.
    triples: Vec<(u64, u64, f64)>,
    /// row_ptr[r]..row_ptr[r+1] indexes `triples` for row r — only rows that
    /// appear; mapping from row id to dense position kept implicit by
    /// requiring u64 rows to fit usize for the operator application.
    row_ptr: Vec<usize>,
}

impl SparseMat {
    /// Build from unsorted triples; duplicates are summed, zeros dropped.
    pub fn from_triples(rows: u64, cols: u64, mut triples: Vec<(u64, u64, f64)>) -> Result<Self> {
        for &(r, c, _) in &triples {
            if r >= rows || c >= cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: format!("({r}, {c})"),
                    dims: format!("[{rows}, {cols}]"),
                });
            }
        }
        triples.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(u64, u64, f64)> = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let row_ptr = build_row_ptr(rows, &merged);
        Ok(SparseMat {
            rows,
            cols,
            triples: merged,
            row_ptr,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.triples.len()
    }

    /// Stored triples, sorted by `(row, col)`.
    #[inline]
    pub fn triples(&self) -> &[(u64, u64, f64)] {
        &self.triples
    }

    /// Dense copy (small matrices / tests only).
    pub fn to_dense(&self) -> Result<Mat> {
        let (r, c) = (self.rows as usize, self.cols as usize);
        let mut m = Mat::zeros(r, c);
        for &(i, j, v) in &self.triples {
            m.add_at(i as usize, j as usize, v);
        }
        Ok(m)
    }
}

fn build_row_ptr(rows: u64, sorted: &[(u64, u64, f64)]) -> Vec<usize> {
    // Sparse row pointer over populated rows only: store (start) offsets by
    // scanning; dense row_ptr would be O(rows) memory which can be huge.
    // We instead store boundaries of row groups: positions where row changes.
    let mut ptr = Vec::new();
    let mut last_row = None;
    for (pos, &(r, _, _)) in sorted.iter().enumerate() {
        if last_row != Some(r) {
            ptr.push(pos);
            last_row = Some(r);
        }
    }
    ptr.push(sorted.len());
    let _ = rows;
    ptr
}

impl LinOp for SparseMat {
    fn nrows(&self) -> usize {
        self.rows as usize
    }

    fn ncols(&self) -> usize {
        self.cols as usize
    }

    /// `S * X` for dense `X ∈ ℝ^{cols×k}`.
    fn apply(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        if x.rows() != self.cols as usize {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse apply: {}x{} * {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.rows as usize, x.cols());
        for &(r, c, v) in &self.triples {
            let src = x.row(c as usize);
            let dst = out.row_mut(r as usize);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += v * s;
            }
        }
        Ok(out)
    }

    /// `Sᵀ * X` for dense `X ∈ ℝ^{rows×k}`.
    fn apply_transpose(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        if x.rows() != self.rows as usize {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse applyᵀ: {}x{} ᵀ * {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.cols as usize, x.cols());
        for &(r, c, v) in &self.triples {
            let src = x.row(r as usize);
            let dst = out.row_mut(c as usize);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += v * s;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_linalg::{leading_left_singular_vectors, svd_small, SubspaceOptions};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn from_triples_merges_and_drops_zero() {
        let m = SparseMat::from_triples(
            3,
            3,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (2, 2, 0.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.triples()[0], (0, 0, 3.0));
    }

    #[test]
    fn bounds_checked() {
        assert!(SparseMat::from_triples(2, 2, vec![(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn apply_matches_dense() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut triples = Vec::new();
        for _ in 0..30 {
            triples.push((
                rng.gen_range(0..10u64),
                rng.gen_range(0..6u64),
                rng.gen::<f64>(),
            ));
        }
        let s = SparseMat::from_triples(10, 6, triples).unwrap();
        let d = s.to_dense().unwrap();
        let x = Mat::random(6, 3, &mut rng);
        let sparse_out = s.apply(&x).unwrap();
        let dense_out = d.matmul(&x).unwrap();
        assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    }

    #[test]
    fn apply_transpose_matches_dense() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut triples = Vec::new();
        for _ in 0..25 {
            triples.push((
                rng.gen_range(0..8u64),
                rng.gen_range(0..5u64),
                rng.gen::<f64>(),
            ));
        }
        let s = SparseMat::from_triples(8, 5, triples).unwrap();
        let d = s.to_dense().unwrap();
        let x = Mat::random(8, 2, &mut rng);
        let sparse_out = s.apply_transpose(&x).unwrap();
        let dense_out = d.transpose().matmul(&x).unwrap();
        assert!(sparse_out.approx_eq(&dense_out, 1e-12));
    }

    /// `‖UᵀS‖²_F` and the sum of the `p` largest `σ²` of `S`'s dense copy.
    fn captured_and_optimal_energy(s: &SparseMat, u: &Mat, p: usize) -> (f64, f64) {
        let d = s.to_dense().unwrap();
        let captured = u.transpose().matmul(&d).unwrap().fro_norm().powi(2);
        let optimal = svd_small(&d).unwrap().s[..p].iter().map(|v| v * v).sum();
        (captured, optimal)
    }

    #[test]
    fn leading_singular_vectors_of_sparse_operator() {
        // The whole point: extract singular vectors without densifying,
        // on the tall (`YᵀY`) and the wide (`YYᵀ`) side.
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in [(40u64, 6u64), (5, 12)] {
            let mut triples = Vec::new();
            for r in 0..rows {
                for _ in 0..3 {
                    triples.push((r, rng.gen_range(0..cols), rng.gen::<f64>() + 0.1));
                }
            }
            let s = SparseMat::from_triples(rows, cols, triples).unwrap();
            let u = leading_left_singular_vectors(&s, 2, &SubspaceOptions::default()).unwrap();
            assert_eq!(u.shape(), (rows as usize, 2));
            assert!(u.gram().approx_eq(&Mat::identity(2), 1e-12));
            let (captured, optimal) = captured_and_optimal_energy(&s, &u, 2);
            assert!(
                (captured - optimal).abs() <= 1e-10 * optimal,
                "{rows}x{cols}: captured {captured}, optimal {optimal}"
            );
        }
    }

    #[test]
    fn apply_dim_mismatch() {
        let s = SparseMat::from_triples(2, 3, vec![(0, 0, 1.0)]).unwrap();
        assert!(s.apply(&Mat::zeros(2, 1)).is_err());
        assert!(s.apply_transpose(&Mat::zeros(3, 1)).is_err());
    }
}
