//! HaTen2-Tucker: distributed computation of `Y ← X ×ₘ₁ U₁ ×ₘ₂ U₂`
//! (Algorithms 3, 5, 7, 9 of the paper), the bottleneck of Tucker-ALS.
//!
//! [`project`] computes, for a target mode `n`, the projection of `X` onto
//! the factor matrices of the two *other* modes: for `n = 0` this is
//! `Y = X ×₂ Bᵀ ×₃ Cᵀ ∈ ℝ^{I×Q×R}` — exactly lines 3/5/7 of Tucker-ALS
//! (Algorithm 2). The four variants trade intermediate data and job count as
//! summarized in Table III; the per-column jobs within a stage are mutually
//! independent, so each variant is submitted as one scheduled
//! [`Batch`] whose *critical path* is what bounds latency on an idle
//! cluster ([`haten2_mapreduce::JobGraph::critical_path_jobs`]):
//!
//! | Variant | Max intermediate | Jobs    | Critical path |
//! |---------|------------------|---------|---------------|
//! | Naive   | `nnz + IJK`      | `Q+R`   | `2`           |
//! | DNN     | `nnz·Q·R`        | `Q+R+2` | `4`           |
//! | DRN     | `nnz·(Q+R)`      | `Q+R+1` | `2`           |
//! | DRI     | `nnz·(Q+R)`      | `2`     | `2`           |

use crate::canon::canonicalize;
use crate::ops::{collapse_job, cross_merge_job, hadamard_vec_job, imhp_job, naive_ttv_job};
use crate::plan::{plan_for, Decomp};
use crate::records::{tensor_records, Ix4};
use crate::{CoreError, Result, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Batch, Cluster};
use haten2_tensor::{CooTensor3, Entry3};
use std::sync::{Arc, OnceLock};

/// Options for [`project`].
#[derive(Debug, Clone, Default)]
pub struct ProjectOptions {
    /// Use a map-side combiner in Collapse jobs (ablation; the paper's cost
    /// model assumes none).
    pub use_combiner: bool,
}

/// Compute `Y ← X ×ₘ₁ U₁ᵀ ×ₘ₂ U₂ᵀ` for the two non-target modes
/// `m₁ < m₂` of `mode`, using the given HaTen2 `variant`.
///
/// * `u1 ∈ ℝ^{Q×dims[m₁]}` and `u2 ∈ ℝ^{R×dims[m₂]}` are the transposed
///   factor matrices (`Bᵀ`, `Cᵀ` for `mode = 0`).
/// * Returns `Y` as a sparse tensor with dims `[dims[mode], Q, R]`.
///
/// ```
/// use haten2_core::{tucker, Variant};
/// use haten2_linalg::Mat;
/// use haten2_mapreduce::{Cluster, ClusterConfig};
/// use haten2_tensor::{CooTensor3, Entry3};
///
/// let x = CooTensor3::from_entries(
///     [2, 2, 2],
///     vec![Entry3::new(0, 1, 0, 3.0)],
/// )
/// .unwrap();
/// let bt = Mat::from_rows(&[vec![1.0, 2.0]]).unwrap(); // Q x J (Q = 1)
/// let ct = Mat::from_rows(&[vec![5.0, 7.0]]).unwrap(); // R x K (R = 1)
/// let cluster = Cluster::new(ClusterConfig::with_machines(2));
///
/// // Y = X x2 Bt x3 Ct: Y(0, 0, 0) = 3 * B(1, 0) * C(0, 0) = 3 * 2 * 5.
/// let y = tucker::project(
///     &cluster, Variant::Dri, &x, 0, &bt, &ct,
///     &tucker::ProjectOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(y.dims(), [2, 1, 1]);
/// assert_eq!(y.get(0, 0, 0), 30.0);
/// // DRI: exactly 2 MapReduce jobs (Table III).
/// assert_eq!(cluster.metrics().total_jobs(), 2);
/// ```
pub fn project(
    cluster: &Cluster,
    variant: Variant,
    x: &CooTensor3,
    mode: usize,
    u1: &Mat,
    u2: &Mat,
    opts: &ProjectOptions,
) -> Result<CooTensor3> {
    if mode > 2 {
        return Err(CoreError::InvalidArgument(format!(
            "mode {mode} out of range"
        )));
    }
    let (xc, perm) = canonicalize(x, mode);
    let d = xc.dims();
    let (d0, d1, d2) = (d[0], d[1], d[2]);
    if u1.cols() != d1 as usize || u2.cols() != d2 as usize {
        return Err(CoreError::InvalidArgument(format!(
            "project: factors are {}x{} and {}x{} for canonical dims {d:?} (perm {perm:?})",
            u1.rows(),
            u1.cols(),
            u2.rows(),
            u2.cols()
        )));
    }
    let q_dim = u1.rows() as u64;
    let r_dim = u2.rows() as u64;
    let x_records = tensor_records(&xc);
    let graph = plan_for(Decomp::Tucker, variant);

    let y_records: Vec<(Ix4, f64)> = match variant {
        Variant::Naive => {
            // Algorithm 3: Q broadcast products with B's rows (mutually
            // independent per-column jobs), then R with C's, each reading
            // the merged T — one batch, critical path 2.
            let dims4 = [d0, d1, d2, 1];
            let t_dims = [d0, q_dim, d2, 1];
            let mut batch = Batch::new(&graph);
            let mut parts = Vec::with_capacity(u1.rows());
            for q in 0..u1.rows() {
                let name = format!("tucker-naive-xv-b{q}");
                let x_records = &x_records;
                let row = u1.row(q);
                parts.push(batch.submit(name.clone(), move |ctx| {
                    naive_ttv_job(ctx, &name, x_records, dims4, 1, row)
                })?);
            }
            // Whichever tv job runs first stacks the Q results along slot 1;
            // the others reuse the memoized merge.
            let merged_t: Arc<OnceLock<Vec<(Ix4, f64)>>> = Arc::new(OnceLock::new());
            let mut ys = Vec::with_capacity(u2.rows());
            for r in 0..u2.rows() {
                let name = format!("tucker-naive-tv-c{r}");
                let row = u2.row(r);
                let parts = parts.clone();
                let merged_t = Arc::clone(&merged_t);
                ys.push(batch.submit(name.clone(), move |ctx| {
                    let mut stacked = Vec::with_capacity(parts.len());
                    for h in &parts {
                        stacked.push(ctx.get(h)?);
                    }
                    let t = merged_t.get_or_init(|| {
                        let mut t_records: Vec<(Ix4, f64)> = Vec::new();
                        for (q, out) in stacked.iter().enumerate() {
                            t_records
                                .extend(out.iter().map(|&(ix, v)| ((ix.0, q as u64, ix.2, 0), v)));
                        }
                        t_records
                    });
                    naive_ttv_job(ctx, &name, t, t_dims, 2, row)
                })?);
            }
            batch.run(cluster)?;
            let mut y = Vec::new();
            for (r, h) in ys.into_iter().enumerate() {
                y.extend(
                    h.take()?
                        .into_iter()
                        .map(|(ix, v)| ((ix.0, ix.1, r as u64, 0), v)),
                );
            }
            y
        }
        Variant::Dnn => {
            // Algorithm 5: Hadamard per column, Collapse, repeat, Collapse —
            // one batch, critical path 4.
            let use_combiner = opts.use_combiner;
            let mut batch = Batch::new(&graph);
            let mut hb = Vec::with_capacity(u1.rows());
            for q in 0..u1.rows() {
                let name = format!("tucker-dnn-had-b{q}");
                let x_records = &x_records;
                let row = u1.row(q);
                hb.push(batch.submit(name.clone(), move |ctx| {
                    hadamard_vec_job(ctx, &name, x_records, 1, row, Some(q as u64))
                })?);
            }
            let t = batch.submit("tucker-dnn-collapse-j", {
                let hb = hb.clone();
                move |ctx| {
                    let mut t_prime: Vec<(Ix4, f64)> = Vec::new();
                    for h in &hb {
                        t_prime.extend(ctx.get(h)?.iter().copied());
                    }
                    let t = collapse_job(ctx, "tucker-dnn-collapse-j", &t_prime, 1, use_combiner)?;
                    // T(x0, 0, k, q): move q into slot 1 so slot 3 is free
                    // for r.
                    Ok(t.into_iter()
                        .map(|(ix, v)| ((ix.0, ix.3, ix.2, 0), v))
                        .collect::<Vec<(Ix4, f64)>>())
                }
            })?;
            let mut hc = Vec::with_capacity(u2.rows());
            for r in 0..u2.rows() {
                let name = format!("tucker-dnn-had-c{r}");
                let row = u2.row(r);
                let t = t.clone();
                hc.push(batch.submit(name.clone(), move |ctx| {
                    hadamard_vec_job(ctx, &name, ctx.get(&t)?, 2, row, Some(r as u64))
                })?);
            }
            let y = batch.submit("tucker-dnn-collapse-k", {
                let hc = hc.clone();
                move |ctx| {
                    let mut y_prime: Vec<(Ix4, f64)> = Vec::new();
                    for h in &hc {
                        y_prime.extend(ctx.get(h)?.iter().copied());
                    }
                    collapse_job(ctx, "tucker-dnn-collapse-k", &y_prime, 2, use_combiner)
                }
            })?;
            batch.run(cluster)?;
            // Y(x0, q, 0, r) -> (x0, q, r, 0)
            y.take()?
                .into_iter()
                .map(|(ix, v)| ((ix.0, ix.1, ix.3, 0), v))
                .collect()
        }
        Variant::Drn => {
            // Algorithm 7: independent Hadamard expansions, then CrossMerge —
            // one batch, critical path 2.
            let bin_records = tensor_records(&xc.bin());
            let mut batch = Batch::new(&graph);
            let mut tp = Vec::with_capacity(u1.rows());
            for q in 0..u1.rows() {
                let name = format!("tucker-drn-had-b{q}");
                let x_records = &x_records;
                let row = u1.row(q);
                tp.push(batch.submit(name.clone(), move |ctx| {
                    hadamard_vec_job(ctx, &name, x_records, 1, row, Some(q as u64))
                })?);
            }
            let mut tdp = Vec::with_capacity(u2.rows());
            for r in 0..u2.rows() {
                let name = format!("tucker-drn-had-c{r}");
                let bin_records = &bin_records;
                let row = u2.row(r);
                tdp.push(batch.submit(name.clone(), move |ctx| {
                    hadamard_vec_job(ctx, &name, bin_records, 2, row, Some(r as u64))
                })?);
            }
            let y = batch.submit("tucker-drn-crossmerge", {
                let tp = tp.clone();
                let tdp = tdp.clone();
                move |ctx| {
                    let mut t_prime: Vec<(Ix4, f64)> = Vec::new();
                    for h in &tp {
                        t_prime.extend(ctx.get(h)?.iter().copied());
                    }
                    let mut t_dprime: Vec<(Ix4, f64)> = Vec::new();
                    for h in &tdp {
                        t_dprime.extend(ctx.get(h)?.iter().copied());
                    }
                    cross_merge_job(ctx, "tucker-drn-crossmerge", &t_prime, &t_dprime)
                }
            })?;
            batch.run(cluster)?;
            y.take()?
        }
        Variant::Dri => {
            // Algorithm 9: one IMHP job + one CrossMerge job.
            let mut batch = Batch::new(&graph);
            let imhp = batch.submit("tucker-dri-imhp", {
                let x_records = &x_records;
                move |ctx| imhp_job(ctx, "tucker-dri-imhp", x_records, u1, u2)
            })?;
            let y = batch.submit("tucker-dri-crossmerge", {
                let imhp = imhp.clone();
                move |ctx| {
                    let (t_prime, t_dprime) = ctx.get(&imhp)?;
                    cross_merge_job(ctx, "tucker-dri-crossmerge", t_prime, t_dprime)
                }
            })?;
            batch.run(cluster)?;
            y.take()?
        }
    };

    let entries: Vec<Entry3> = y_records
        .into_iter()
        .map(|(ix, v)| Entry3::new(ix.0, ix.1, ix.2, v))
        .collect();
    Ok(CooTensor3::from_entries([d0, q_dim, r_dim], entries)?)
}

/// Number of MapReduce jobs [`project`] submits for a given variant and
/// core sizes — the "Total Jobs" column of Table III.
pub fn expected_jobs(variant: Variant, q: usize, r: usize) -> usize {
    match variant {
        Variant::Naive => q + r,
        Variant::Dnn => q + r + 2,
        Variant::Drn => q + r + 1,
        Variant::Dri => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::ClusterConfig;
    use haten2_tensor::ops::ttm;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_coo(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..nnz)
            .map(|_| {
                Entry3::new(
                    rng.gen_range(0..dims[0]),
                    rng.gen_range(0..dims[1]),
                    rng.gen_range(0..dims[2]),
                    rng.gen_range(0.5..2.0),
                )
            })
            .collect();
        CooTensor3::from_entries(dims, entries).unwrap()
    }

    fn reference(x: &CooTensor3, mode: usize, u1: &Mat, u2: &Mat) -> CooTensor3 {
        // Sequential sparse ttm on the two non-target modes, then permute so
        // the target mode leads.
        let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        let t = ttm(x, others[0], u1).unwrap();
        let y = ttm(&t, others[1], u2).unwrap();
        let (canon, _) = crate::canon::canonicalize(&y, mode);
        canon
    }

    fn check_variant(variant: Variant) {
        let x = random_coo([4, 5, 3], 20, 42);
        let mut rng = StdRng::seed_from_u64(7);
        for mode in 0..3 {
            let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            let u1 = Mat::random(2, x.dims()[others[0]] as usize, &mut rng);
            let u2 = Mat::random(3, x.dims()[others[1]] as usize, &mut rng);
            let cluster = Cluster::new(ClusterConfig::with_machines(4));
            let y = project(
                &cluster,
                variant,
                &x,
                mode,
                &u1,
                &u2,
                &ProjectOptions::default(),
            )
            .unwrap();
            let want = reference(&x, mode, &u1, &u2);
            assert_eq!(y.dims(), want.dims(), "{variant} mode {mode}");
            for e in want.entries() {
                assert!(
                    (y.get(e.i, e.j, e.k) - e.v).abs() < 1e-9,
                    "{variant} mode {mode}: mismatch at ({},{},{}): {} vs {}",
                    e.i,
                    e.j,
                    e.k,
                    y.get(e.i, e.j, e.k),
                    e.v
                );
            }
            assert_eq!(y.nnz(), want.nnz(), "{variant} mode {mode} support");
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_variant(Variant::Naive);
    }

    #[test]
    fn dnn_matches_reference() {
        check_variant(Variant::Dnn);
    }

    #[test]
    fn drn_matches_reference() {
        check_variant(Variant::Drn);
    }

    #[test]
    fn dri_matches_reference() {
        check_variant(Variant::Dri);
    }

    #[test]
    fn job_counts_match_table3() {
        let x = random_coo([4, 4, 4], 15, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (q, r) = (2usize, 3usize);
        let u1 = Mat::random(q, 4, &mut rng);
        let u2 = Mat::random(r, 4, &mut rng);
        for variant in Variant::ALL {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            project(
                &cluster,
                variant,
                &x,
                0,
                &u1,
                &u2,
                &ProjectOptions::default(),
            )
            .unwrap();
            assert_eq!(
                cluster.metrics().total_jobs(),
                expected_jobs(variant, q, r),
                "{variant}"
            );
        }
    }

    #[test]
    fn naive_fails_on_capacity() {
        // Broadcast cost nnz + IJK must exceed a tiny capacity budget.
        let x = random_coo([50, 50, 50], 30, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let u1 = Mat::random(2, 50, &mut rng);
        let u2 = Mat::random(2, 50, &mut rng);
        let cfg = ClusterConfig {
            cluster_capacity_bytes: Some(100_000),
            ..ClusterConfig::with_machines(4)
        };
        let cluster = Cluster::new(cfg);
        let err = project(
            &cluster,
            Variant::Naive,
            &x,
            0,
            &u1,
            &u2,
            &ProjectOptions::default(),
        )
        .unwrap_err();
        assert!(err.is_oom(), "expected o.o.m., got {err}");
        // DRI must succeed under the same budget.
        let cluster2 = Cluster::new(ClusterConfig {
            cluster_capacity_bytes: Some(100_000),
            ..ClusterConfig::with_machines(4)
        });
        project(
            &cluster2,
            Variant::Dri,
            &x,
            0,
            &u1,
            &u2,
            &ProjectOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn intermediate_data_ordering_matches_table3() {
        // For fixed inputs: DNN's max intermediate >= DRN's ~= DRI's.
        let x = random_coo([6, 6, 6], 40, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (q, r) = (4usize, 4usize);
        let u1 = Mat::random(q, 6, &mut rng);
        let u2 = Mat::random(r, 6, &mut rng);
        let mut max_inter = std::collections::HashMap::new();
        for variant in [Variant::Dnn, Variant::Drn, Variant::Dri] {
            let cluster = Cluster::new(ClusterConfig::with_machines(2));
            project(
                &cluster,
                variant,
                &x,
                0,
                &u1,
                &u2,
                &ProjectOptions::default(),
            )
            .unwrap();
            max_inter.insert(variant, cluster.metrics().max_intermediate_records());
        }
        assert!(
            max_inter[&Variant::Dnn] > max_inter[&Variant::Drn],
            "DNN {} should exceed DRN {}",
            max_inter[&Variant::Dnn],
            max_inter[&Variant::Drn]
        );
        // DRN and DRI share the merge job as their largest.
        let drn = max_inter[&Variant::Drn] as f64;
        let dri = max_inter[&Variant::Dri] as f64;
        assert!((drn - dri).abs() / drn < 0.25, "DRN {drn} vs DRI {dri}");
    }
}
