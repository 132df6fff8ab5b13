//! Leading left singular vectors via an exact eigensolve of the smaller Gram.
//!
//! Tucker-ALS (Algorithm 2 of the paper) needs the `P` leading left singular
//! vectors of a matricized tensor `Y₍₁₎ ∈ ℝ^{I×QR}` where `I` can be in the
//! millions but `P`, `Q`, `R` are small. Forming `Y Yᵀ` (I×I) is the
//! intermediate-data explosion this paper is about avoiding, so we
//! eigendecompose the Gram of the *smaller* side instead: the `QR×QR`
//! matrix `YᵀY` when `QR ≤ I`, and `Y Yᵀ` only when `I` is the smaller
//! side. The Gram is assembled a few columns at a time from products with
//! the operator, abstracted as [`LinOp`] so callers can plug in sparse
//! matricized tensors without densifying them.

use crate::eigen::sym_eigen;
use crate::qr::thin_qr;
use crate::{LinalgError, Mat, Result};

/// An abstract `m × n` linear operator supporting products with blocks of
/// vectors. Implemented by dense [`Mat`] here and by sparse matricized
/// tensors in `haten2-tensor`.
pub trait LinOp {
    /// Row count `m`.
    fn nrows(&self) -> usize;
    /// Column count `n`.
    fn ncols(&self) -> usize;
    /// `self * x` for a block `x ∈ ℝ^{n×k}` → `ℝ^{m×k}`.
    fn apply(&self, x: &Mat) -> Result<Mat>;
    /// `selfᵀ * x` for a block `x ∈ ℝ^{m×k}` → `ℝ^{n×k}`.
    fn apply_transpose(&self, x: &Mat) -> Result<Mat>;
}

impl LinOp for Mat {
    fn nrows(&self) -> usize {
        self.rows()
    }
    fn ncols(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Mat) -> Result<Mat> {
        self.matmul(x)
    }
    fn apply_transpose(&self, x: &Mat) -> Result<Mat> {
        // (AᵀX) computed without materializing Aᵀ: (XᵀA)ᵀ.
        Ok(x.transpose().matmul(self)?.transpose())
    }
}

/// Options for [`leading_left_singular_vectors`].
///
/// The eigensolve is exact and deterministic, so there is nothing left to
/// tune: `seed` is accepted for source compatibility and ignored.
#[derive(Debug, Clone, Default)]
pub struct SubspaceOptions {
    /// Ignored.
    pub seed: u64,
}

/// Compute the `p` leading left singular vectors of an operator `a` as an
/// `m × p` matrix with orthonormal columns.
///
/// With `k = min(m, n)`, builds the `k × k` Gram of the smaller side
/// (`AᵀA` when `n ≤ m`, else `AAᵀ`) from products of `a` with `p`-wide
/// blocks of the identity, so no more than an `m × p` or `n × p` block is
/// live besides the Gram. The symmetrized Gram goes to [`sym_eigen`]; the
/// result is `orth(A V_p)` for the top `p` eigenvectors `V_p` of `AᵀA`, or
/// the top `p` eigenvectors of `AAᵀ` directly. The span is the optimal
/// rank-`p` one up to the eigensolver's rounding: `‖UᵀA‖²_F` equals the sum
/// of the `p` largest `σ²`. A non-finite Gram (non-finite entries, or
/// squares that overflow) yields an all-NaN block rather than an
/// eigensolver error, so the callers' finiteness checks report it.
pub fn leading_left_singular_vectors<O: LinOp + ?Sized>(
    a: &O,
    p: usize,
    _opts: &SubspaceOptions,
) -> Result<Mat> {
    let (m, n) = (a.nrows(), a.ncols());
    if p == 0 {
        return Ok(Mat::zeros(m, 0));
    }
    if p > m || p > n {
        return Err(LinalgError::InvalidArgument(format!(
            "requested {p} singular vectors of a {m}x{n} operator"
        )));
    }

    let tall = n <= m;
    let gram = small_side_gram(a, p, tall)?;
    if !gram.data().iter().all(|v| v.is_finite()) {
        return Mat::from_vec(m, p, vec![f64::NAN; m * p]);
    }
    let vectors = sym_eigen(&gram)?.vectors;
    let k = vectors.rows();
    let mut top = Mat::zeros(k, p);
    for i in 0..k {
        top.row_mut(i).copy_from_slice(&vectors.row(i)[..p]);
    }
    if tall {
        thin_qr(&a.apply(&top)?)
    } else {
        Ok(top)
    }
}

/// Symmetrized Gram of the smaller side of `a` (`AᵀA` when `tall`, else
/// `AAᵀ`), assembled from `p` columns at a time.
fn small_side_gram<O: LinOp + ?Sized>(a: &O, p: usize, tall: bool) -> Result<Mat> {
    let k = if tall { a.ncols() } else { a.nrows() };
    let mut gram = Mat::zeros(k, k);
    for start in (0..k).step_by(p) {
        let width = p.min(k - start);
        let mut basis = Mat::zeros(k, width);
        for j in 0..width {
            basis.set(start + j, j, 1.0);
        }
        let cols = if tall {
            a.apply_transpose(&a.apply(&basis)?)?
        } else {
            a.apply(&a.apply_transpose(&basis)?)?
        };
        for i in 0..k {
            gram.row_mut(i)[start..start + width].copy_from_slice(cols.row(i));
        }
    }
    for i in 0..k {
        for j in (i + 1)..k {
            let s = 0.5 * (gram.get(i, j) + gram.get(j, i));
            gram.set(i, j, s);
            gram.set(j, i, s);
        }
    }
    Ok(gram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::svd_small;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Subspace angle check: columns of `u` span the same space as `v`.
    fn same_subspace(u: &Mat, v: &Mat, tol: f64) -> bool {
        // ‖UᵀV‖ singular values all ≈ 1.
        let c = u.transpose().matmul(v).unwrap();
        let svd = svd_small(&c).unwrap();
        svd.s.iter().all(|&s| (s - 1.0).abs() < tol)
    }

    #[test]
    fn recovers_leading_subspace_of_random_tall_matrix() {
        let mut rng = StdRng::seed_from_u64(99);
        // Build a matrix with a strong rank-3 signal plus noise.
        let u_true = thin_qr(&Mat::random(50, 3, &mut rng)).unwrap();
        let v_true = thin_qr(&Mat::random(8, 3, &mut rng)).unwrap();
        let mut a = Mat::zeros(50, 8);
        let sig = [100.0, 50.0, 25.0];
        for (k, &s) in sig.iter().enumerate() {
            for i in 0..50 {
                for j in 0..8 {
                    a.add_at(i, j, s * u_true.get(i, k) * v_true.get(j, k));
                }
            }
        }
        // Small noise.
        for i in 0..50 {
            for j in 0..8 {
                a.add_at(i, j, 0.01 * rng.gen::<f64>());
            }
        }
        let u = leading_left_singular_vectors(&a, 3, &SubspaceOptions::default()).unwrap();
        assert!(same_subspace(&u, &u_true, 1e-3));
    }

    #[test]
    fn matches_svd_small_on_dense() {
        // Tall (`AᵀA` side) and wide (`AAᵀ` side) operators.
        let mut rng = StdRng::seed_from_u64(4);
        for (m, n) in [(20, 6), (5, 30)] {
            let a = Mat::random(m, n, &mut rng);
            let svd = svd_small(&a).unwrap();
            let mut u_ref = Mat::zeros(m, 2);
            for j in 0..2 {
                for i in 0..m {
                    u_ref.set(i, j, svd.u.get(i, j));
                }
            }
            let u = leading_left_singular_vectors(&a, 2, &SubspaceOptions::default()).unwrap();
            assert!(same_subspace(&u, &u_ref, 1e-9), "{m}x{n}");
        }
    }

    #[test]
    fn orthonormal_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Mat::random(30, 10, &mut rng);
        let u = leading_left_singular_vectors(&a, 4, &SubspaceOptions::default()).unwrap();
        assert!(u.gram().approx_eq(&Mat::identity(4), 1e-9));
    }

    #[test]
    fn non_finite_operator_gives_non_finite_block() {
        let a = Mat::from_rows(&[vec![1e200, 1e200], vec![1e200, -1e200], vec![0.0, 1.0]]).unwrap();
        let u = leading_left_singular_vectors(&a, 1, &SubspaceOptions::default()).unwrap();
        assert_eq!(u.shape(), (3, 1));
        assert!(u.data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn p_zero_is_empty() {
        let a = Mat::identity(4);
        let u = leading_left_singular_vectors(&a, 0, &SubspaceOptions::default()).unwrap();
        assert_eq!(u.shape(), (4, 0));
    }

    #[test]
    fn rejects_oversized_p() {
        let a = Mat::identity(3);
        assert!(leading_left_singular_vectors(&a, 4, &SubspaceOptions::default()).is_err());
    }
}
