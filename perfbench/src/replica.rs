//! Traced replicas of the library's ALS drivers.
//!
//! `parafac_als`/`tucker_als` are single opaque calls, so the traced run
//! drives the same sweep loop itself through the public functions they
//! are built from, with a span around each call. The loops mirror
//! `haten2_core::als` and `haten2_core::checkpoint` statement for
//! statement, so the replica's fits equal the untraced run's bit for bit;
//! the benchmark reports the difference as `trace.fit_delta` rather than
//! assuming it. Every workload runs with `tol = 0`, so the replicas leave
//! out the drivers' early-stop test. The caller wraps each replica call in
//! the `als.call` span that matches one untraced library call.

use crate::trace::Recorder;
use haten2_blockstore::localfs;
use haten2_core::{
    load_parafac_state, load_sweep_marker, parafac, persist_parafac_state, save_parafac_state,
    tucker, AlsOptions, CoreError, Result,
};
use haten2_linalg::{leading_left_singular_vectors, pinv, thin_qr, LinOp, Mat, SubspaceOptions};
use haten2_mapreduce::Cluster;
use haten2_tensor::{CooTensor3, DenseTensor3, SparseMat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Traced `parafac_als_with_init`, including the checkpoint hook; returns
/// the fit after each sweep.
pub fn parafac_als(
    rec: &Recorder,
    cluster: &Cluster,
    x: &CooTensor3,
    rank: usize,
    opts: &AlsOptions,
    init: Option<[Mat; 3]>,
) -> Result<Vec<f64>> {
    let dims = x.dims();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut factors = init.unwrap_or_else(|| {
        [
            Mat::random(dims[0] as usize, rank, &mut rng),
            Mat::random(dims[1] as usize, rank, &mut rng),
            Mat::random(dims[2] as usize, rank, &mut rng),
        ]
    });
    let mut lambda = vec![1.0; rank];
    let norm_x_sq = x.fro_norm_sq();
    let norm_x = norm_x_sq.sqrt();
    let mut fits = Vec::new();
    for sweep in 0..opts.max_iters {
        rec.span("als.sweep", || -> Result<()> {
            let mut last_mttkrp = None;
            for mode in 0..3 {
                let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
                let m = rec.span("core.mttkrp", || {
                    parafac::mttkrp(
                        cluster,
                        opts.variant,
                        x,
                        mode,
                        &factors[others[0]],
                        &factors[others[1]],
                    )
                })?;
                let g = rec
                    .span("linalg.gram", || {
                        factors[others[0]]
                            .gram()
                            .hadamard(&factors[others[1]].gram())
                    })
                    .map_err(CoreError::Linalg)?;
                let g_pinv = rec.span("linalg.pinv", || pinv(&g))?;
                factors[mode] = rec
                    .span("linalg.matmul", || m.matmul(&g_pinv))
                    .map_err(CoreError::Linalg)?;
                lambda = rec.span("linalg.normalize", || factors[mode].normalize_columns());
                if mode == 2 {
                    last_mttkrp = Some(m);
                }
            }
            let g_all = rec
                .span("linalg.gram", || {
                    factors[0]
                        .gram()
                        .hadamard(&factors[1].gram())
                        .and_then(|g| g.hadamard(&factors[2].gram()))
                })
                .map_err(CoreError::Linalg)?;
            let fit = rec.span("als.fit", || {
                let m = last_mttkrp.as_ref().expect("three modes were swept");
                let c = &factors[2];
                let mut inner = 0.0;
                for k in 0..c.rows() {
                    for (r, &l) in lambda.iter().enumerate() {
                        inner += m.get(k, r) * c.get(k, r) * l;
                    }
                }
                let mut norm_model_sq = 0.0;
                for r in 0..rank {
                    for s in 0..rank {
                        norm_model_sq += lambda[r] * lambda[s] * g_all.get(r, s);
                    }
                }
                let err_sq = (norm_x_sq + norm_model_sq - 2.0 * inner).max(0.0);
                if norm_x > 0.0 {
                    1.0 - err_sq.sqrt() / norm_x
                } else {
                    1.0
                }
            });
            fits.push(fit);
            maybe_checkpoint(rec, cluster, opts, sweep, &lambda, &factors)
        })?;
    }
    Ok(fits)
}

/// Traced `checkpoint::maybe_save_parafac`: text state, durable store
/// snapshot, then the sweep marker.
fn maybe_checkpoint(
    rec: &Recorder,
    cluster: &Cluster,
    opts: &AlsOptions,
    sweep: usize,
    lambda: &[f64],
    factors: &[Mat; 3],
) -> Result<()> {
    let Some(prefix) = &opts.checkpoint_prefix else {
        return Ok(());
    };
    if !(sweep + 1).is_multiple_of(opts.checkpoint_every.max(1)) {
        return Ok(());
    }
    rec.span("checkpoint.save", || {
        save_parafac_state(lambda, factors, prefix)
    })?;
    if cluster.dfs().is_durable() {
        rec.span("store.persist", || {
            persist_parafac_state(cluster, prefix, lambda, factors)
        })?;
    }
    rec.span("checkpoint.save", || {
        localfs::write_atomic(
            Path::new(&format!("{prefix}.sweep.txt")),
            format!("{}\n", opts.first_sweep + sweep + 1).as_bytes(),
        )
    })
    .map_err(|e| CoreError::InvalidArgument(format!("checkpoint I/O: {e}")))
}

/// Traced resume half of `parafac_als_checkpointed` on a durable cluster:
/// read the marker, load the state from the store, fold `λ` into the
/// first factor and sweep the remaining `opts.max_iters − done` sweeps.
pub fn parafac_resume(
    rec: &Recorder,
    cluster: &Cluster,
    x: &CooTensor3,
    rank: usize,
    opts: &AlsOptions,
) -> Result<Vec<f64>> {
    let prefix = opts
        .checkpoint_prefix
        .as_deref()
        .ok_or_else(|| CoreError::InvalidArgument("resume needs checkpoint_prefix".into()))?;
    let done = load_sweep_marker(prefix)?
        .ok_or_else(|| CoreError::InvalidArgument("no checkpoint to resume".into()))?;
    let (lambda, mut factors) = rec
        .span("store.load", || load_parafac_state(cluster, prefix))?
        .ok_or_else(|| CoreError::InvalidArgument("no checkpoint state in the store".into()))?;
    let a = &mut factors[0];
    for (r, &l) in lambda.iter().enumerate() {
        for i in 0..a.rows() {
            let v = a.get(i, r) * l;
            a.set(i, r, v);
        }
    }
    let resumed = AlsOptions {
        max_iters: opts.max_iters - done,
        first_sweep: opts.first_sweep + done,
        ..opts.clone()
    };
    parafac_als(rec, cluster, x, rank, &resumed, Some(factors))
}

/// The sparse matricized projection, with a span around each product the
/// subspace iteration takes with it (children of `linalg.svd`).
struct TracedOp<'a> {
    rec: &'a Recorder,
    op: &'a SparseMat,
}

impl LinOp for TracedOp<'_> {
    fn nrows(&self) -> usize {
        self.op.nrows()
    }
    fn ncols(&self) -> usize {
        self.op.ncols()
    }
    fn apply(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        self.rec.span("linalg.svd_matvec", || self.op.apply(x))
    }
    fn apply_transpose(&self, x: &Mat) -> haten2_linalg::Result<Mat> {
        self.rec
            .span("linalg.svd_matvec", || self.op.apply_transpose(x))
    }
}

/// Traced `tucker_als_with_init` without a warm start; returns the final
/// fit.
pub fn tucker_als(
    rec: &Recorder,
    cluster: &Cluster,
    x: &CooTensor3,
    core_dims: [usize; 3],
    opts: &AlsOptions,
) -> Result<f64> {
    let dims = x.dims();
    let [p_dim, q_dim, r_dim] = core_dims;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut factors = [
        Mat::zeros(dims[0] as usize, p_dim),
        rec.span("linalg.qr", || {
            thin_qr(&Mat::random(dims[1] as usize, q_dim, &mut rng))
        })?,
        rec.span("linalg.qr", || {
            thin_qr(&Mat::random(dims[2] as usize, r_dim, &mut rng))
        })?,
    ];
    let norm_x_sq = x.fro_norm_sq();
    let norm_x = norm_x_sq.sqrt();
    let project_opts = tucker::ProjectOptions {
        use_combiner: opts.use_combiner,
    };
    let mut core_norms: Vec<f64> = Vec::new();
    for sweep in 0..opts.max_iters {
        rec.span("als.sweep", || -> Result<()> {
            let mut last_y = None;
            for mode in 0..3 {
                let others: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
                let u1 = factors[others[0]].transpose();
                let u2 = factors[others[1]].transpose();
                let y = rec.span("core.project", || {
                    tucker::project(cluster, opts.variant, x, mode, &u1, &u2, &project_opts)
                })?;
                let y_mat = rec.span("tensor.matricize", || y.matricize(0))?;
                let abs_sweep = (opts.first_sweep + sweep) as u64;
                let sub_opts = SubspaceOptions {
                    seed: opts.seed ^ (abs_sweep << 8 | mode as u64),
                    ..Default::default()
                };
                let op = TracedOp { rec, op: &y_mat };
                factors[mode] = rec.span("linalg.svd", || {
                    leading_left_singular_vectors(&op, core_dims[mode], &sub_opts)
                })?;
                if mode == 2 {
                    last_y = Some(y);
                }
            }
            let y = last_y.expect("three modes were swept");
            let c = &factors[2];
            let norm_g = rec.span("als.core", || {
                let mut core = DenseTensor3::zeros(core_dims);
                for e in y.entries() {
                    let (k, p, q) = (e.i as usize, e.j as usize, e.k as usize);
                    for r in 0..r_dim {
                        core.add_at(p, q, r, e.v * c.get(k, r));
                    }
                }
                core.fro_norm()
            });
            core_norms.push(norm_g);
            Ok(())
        })?;
    }
    let norm_g = core_norms.last().copied().unwrap_or(0.0);
    let err_sq = (norm_x_sq - norm_g * norm_g).max(0.0);
    Ok(if norm_x > 0.0 {
        1.0 - err_sq.sqrt() / norm_x
    } else {
        1.0
    })
}
