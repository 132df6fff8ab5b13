//! Output checks, computed independently of the library's own arithmetic
//! (plain loops over the nonzeros and factor entries). Each check returns
//! the list of problems it found; an empty list means the output passed.

use haten2_core::{ParafacResult, TuckerResult};
use haten2_linalg::Mat;
use haten2_tensor::{CooTensor3, DenseTensor3};

/// Largest accepted difference between the driver's PARAFAC fit and the
/// independently recomputed one.
pub const FIT_TOL: f64 = 1e-9;

/// Largest accepted deviation of a factor's `UᵀU` from the identity.
pub const ORTHO_TOL: f64 = 1e-8;

/// Largest accepted core difference, relative to `max(‖G‖, 1)`.
pub const CORE_TOL: f64 = 1e-8;

/// `diff <= tol`, false when `diff` is NaN.
fn within(diff: f64, tol: f64) -> bool {
    diff <= tol
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

fn finite_problems(what: &str, lambda: &[f64], factors: &[Mat; 3], fits: &[f64]) -> Vec<String> {
    let mut out = Vec::new();
    if !all_finite(lambda) {
        out.push(format!("{what}: non-finite lambda"));
    }
    for (n, f) in factors.iter().enumerate() {
        if !all_finite(f.data()) {
            out.push(format!("{what}: non-finite factor {n}"));
        }
    }
    if !all_finite(fits) {
        out.push(format!("{what}: non-finite fit"));
    }
    out
}

/// `(UᵀU)(r, s)` by plain summation.
fn gram(u: &Mat) -> Vec<Vec<f64>> {
    let c = u.cols();
    let mut g = vec![vec![0.0; c]; c];
    for i in 0..u.rows() {
        for (r, row) in g.iter_mut().enumerate() {
            let a = u.get(i, r);
            for (s, slot) in row.iter_mut().enumerate() {
                *slot += a * u.get(i, s);
            }
        }
    }
    g
}

/// PARAFAC fit `1 − ‖X − X̂‖/‖X‖` from `λ`, the factors and the tensor:
/// `⟨X, X̂⟩` over the nonzeros plus the Gram form
/// `‖X̂‖² = Σ_rs λ_r λ_s (AᵀA)(r,s) (BᵀB)(r,s) (CᵀC)(r,s)`.
pub fn parafac_fit(x: &CooTensor3, lambda: &[f64], factors: &[Mat; 3]) -> f64 {
    let [a, b, c] = factors;
    let mut inner = 0.0;
    let mut norm_x_sq = 0.0;
    for e in x.entries() {
        let (i, j, k) = (e.i as usize, e.j as usize, e.k as usize);
        let model: f64 = lambda
            .iter()
            .enumerate()
            .map(|(r, l)| l * a.get(i, r) * b.get(j, r) * c.get(k, r))
            .sum();
        inner += e.v * model;
        norm_x_sq += e.v * e.v;
    }
    let (ga, gb, gc) = (gram(a), gram(b), gram(c));
    let mut norm_model_sq = 0.0;
    for r in 0..lambda.len() {
        for s in 0..lambda.len() {
            norm_model_sq += lambda[r] * lambda[s] * ga[r][s] * gb[r][s] * gc[r][s];
        }
    }
    let err_sq = (norm_x_sq + norm_model_sq - 2.0 * inner).max(0.0);
    if norm_x_sq > 0.0 {
        1.0 - err_sq.sqrt() / norm_x_sq.sqrt()
    } else {
        1.0
    }
}

/// PARAFAC output: finite values and a fit that matches [`parafac_fit`].
pub fn check_parafac(what: &str, x: &CooTensor3, res: &ParafacResult) -> Vec<String> {
    let mut out = finite_problems(what, &res.lambda, &res.factors, &res.fits);
    if res.fits.is_empty() {
        out.push(format!("{what}: no sweep ran"));
        return out;
    }
    let recomputed = parafac_fit(x, &res.lambda, &res.factors);
    if !within((recomputed - res.fit()).abs(), FIT_TOL) {
        out.push(format!(
            "{what}: driver fit {} but recomputed fit {recomputed}",
            res.fit()
        ));
    }
    out
}

/// `G = X ×₁ Aᵀ ×₂ Bᵀ ×₃ Cᵀ`, summed over the nonzeros.
pub fn tucker_core(x: &CooTensor3, factors: &[Mat; 3]) -> DenseTensor3 {
    let [a, b, c] = factors;
    let dims = [a.cols(), b.cols(), c.cols()];
    let mut g = DenseTensor3::zeros(dims);
    for e in x.entries() {
        let (i, j, k) = (e.i as usize, e.j as usize, e.k as usize);
        for p in 0..dims[0] {
            let vp = e.v * a.get(i, p);
            for q in 0..dims[1] {
                let vpq = vp * b.get(j, q);
                for r in 0..dims[2] {
                    g.add_at(p, q, r, vpq * c.get(k, r));
                }
            }
        }
    }
    g
}

/// Tucker output: finite values, orthonormal factors, a core that matches
/// [`tucker_core`], non-decreasing core norms, and a fit consistent with
/// the final core norm.
pub fn check_tucker(what: &str, x: &CooTensor3, res: &TuckerResult) -> Vec<String> {
    let mut out = finite_problems(what, &[], &res.factors, &[res.fit]);
    if !all_finite(res.core.data()) || !all_finite(&res.core_norms) {
        out.push(format!("{what}: non-finite core"));
    }
    for (n, f) in res.factors.iter().enumerate() {
        let g = gram(f);
        let worst = (0..g.len())
            .flat_map(|r| (0..g.len()).map(move |s| (r, s)))
            .map(|(r, s)| (g[r][s] - if r == s { 1.0 } else { 0.0 }).abs())
            .fold(0.0, f64::max);
        if !within(worst, ORTHO_TOL) {
            out.push(format!(
                "{what}: factor {n} is not orthonormal (|UᵀU − I| = {worst:e})"
            ));
        }
    }
    let recomputed = tucker_core(x, &res.factors);
    let scale = res.core.fro_norm().max(1.0);
    let worst = recomputed
        .data()
        .iter()
        .zip(res.core.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if recomputed.dims() != res.core.dims() || !within(worst, CORE_TOL * scale) {
        out.push(format!("{what}: core differs from X ×ₙ Uₙᵀ by {worst:e}"));
    }
    for w in res.core_norms.windows(2) {
        if w[1] < w[0] {
            out.push(format!("{what}: core norm decreased {} -> {}", w[0], w[1]));
        }
    }
    let norm_x_sq = x.fro_norm_sq();
    let norm_g = res.core_norms.last().copied().unwrap_or(0.0);
    let fit = 1.0 - (norm_x_sq - norm_g * norm_g).max(0.0).sqrt() / norm_x_sq.sqrt();
    if !within((fit - res.fit).abs(), FIT_TOL) {
        out.push(format!("{what}: fit {} but ‖G‖ gives {fit}", res.fit));
    }
    out
}

/// Bit equality of two PARAFAC states.
pub fn same_bits(a: &(Vec<f64>, [Mat; 3]), b: &(Vec<f64>, [Mat; 3])) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.0) == bits(&b.0)
        && a.1.iter().zip(&b.1).all(|(p, q)| {
            p.rows() == q.rows() && p.cols() == q.cols() && bits(p.data()) == bits(q.data())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;

    #[test]
    fn exact_rank_one_model_has_fit_one() {
        let a = Mat::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Mat::from_rows(&[vec![3.0], vec![1.0]]).unwrap();
        let c = Mat::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let mut entries = Vec::new();
        for i in 0..2u64 {
            for j in 0..2u64 {
                for k in 0..2u64 {
                    let v = a.get(i as usize, 0) * b.get(j as usize, 0) * c.get(k as usize, 0);
                    entries.push(Entry3::new(i, j, k, v));
                }
            }
        }
        let x = CooTensor3::from_entries([2, 2, 2], entries).unwrap();
        assert!((parafac_fit(&x, &[1.0], &[a.clone(), b.clone(), c.clone()]) - 1.0).abs() < 1e-12);
        // Halving λ leaves half of X unexplained: fit 0.5.
        assert!((parafac_fit(&x, &[0.5], &[a, b, c]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tucker_core_of_identity_factors_is_the_tensor() {
        let x = CooTensor3::from_entries([2, 2, 2], vec![Entry3::new(1, 0, 1, 3.0)]).unwrap();
        let id = Mat::identity(2);
        let g = tucker_core(&x, &[id.clone(), id.clone(), id]);
        assert_eq!(g.get(1, 0, 1), 3.0);
        assert_eq!(g.fro_norm(), 3.0);
    }
}
