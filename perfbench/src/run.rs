//! One untraced repetition of a workload: set up, run the decomposition
//! call(s) through the public library API, check the outputs.

use crate::checks;
use crate::workload::{Kind, Spec};
use haten2_core::{
    load_parafac, load_parafac_state, parafac_als, parafac_als_checkpointed, tucker_als,
    AlsOptions, ParafacResult, Variant,
};
use haten2_mapreduce::{Cluster, RunMetrics};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one repetition measured and found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Tensor generation, cluster construction and (durable) store opens.
    pub setup_s: f64,
    /// Tensor generation alone.
    pub generate_s: f64,
    /// Host wall time of the decomposition call(s).
    pub als_s: f64,
    /// `RunMetrics::total_sim_time_s` over the decomposition call(s).
    pub sim_s: f64,
    /// MapReduce jobs run.
    pub jobs: usize,
    /// Bytes shuffled by those jobs.
    pub shuffle_bytes: usize,
    /// Final fit of each tensor's decomposition.
    pub fits: Vec<f64>,
    /// Failed output checks (or the decomposition's error).
    pub failures: Vec<String>,
}

impl Outcome {
    /// The values that must repeat exactly across repetitions of a seed.
    pub fn fingerprint(&self) -> (u64, usize, usize, Vec<u64>) {
        (
            self.sim_s.to_bits(),
            self.jobs,
            self.shuffle_bytes,
            self.fits.iter().map(|f| f.to_bits()).collect(),
        )
    }

    fn count(&mut self, metrics: &RunMetrics) {
        self.sim_s += metrics.total_sim_time_s();
        self.jobs += metrics.total_jobs();
        self.shuffle_bytes += metrics.jobs.iter().map(|j| j.shuffle_bytes).sum::<usize>();
    }
}

/// ALS options of a workload's first decomposition call.
pub fn als_options(spec: &Spec, checkpoint_prefix: Option<String>) -> AlsOptions {
    let variant = match spec.kind {
        Kind::CpDrnDurable => Variant::Drn,
        _ => Variant::Dri,
    };
    AlsOptions {
        max_iters: spec.sweeps,
        tol: 0.0,
        checkpoint_prefix,
        checkpoint_every: 1,
        ..AlsOptions::with_variant(variant)
    }
}

/// A fresh directory for one repetition's durable store and checkpoint
/// files: `<work>/store` and `<work>/ckpt/state.*`.
pub struct RepDir {
    /// The repetition's root directory.
    pub root: PathBuf,
}

impl RepDir {
    /// Create (or empty) `root`.
    pub fn fresh(root: &Path) -> std::io::Result<RepDir> {
        if root.exists() {
            std::fs::remove_dir_all(root)?;
        }
        std::fs::create_dir_all(root)?;
        Ok(RepDir {
            root: root.to_path_buf(),
        })
    }

    /// Block-store directory.
    pub fn store(&self) -> PathBuf {
        self.root.join("store")
    }

    /// Checkpoint prefix (text files and DFS dataset keys).
    pub fn prefix(&self) -> String {
        self.root.join("ckpt").join("state").display().to_string()
    }
}

impl Drop for RepDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Run one untraced repetition of `spec` on the tensor of `seed`, using
/// `work` as scratch space for the durable workload.
pub fn run_untraced(spec: &Spec, seed: u64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(spec, seed, work, &mut out) {
        out.failures.push(format!("{}: {e}", spec.name));
    }
    out
}

/// Time the workload's set-up alone: tensor generation, cluster
/// construction and, on the durable workload, opening the store a second
/// time as the resume does.
pub fn setup_only(spec: &Spec, seed: u64, work: &Path) -> std::io::Result<f64> {
    let t = Instant::now();
    let xs = spec.generate(seed);
    let dir = RepDir::fresh(work)?;
    let config = spec.cluster_config(&dir.store());
    let open = || Cluster::try_new(config.clone()).map_err(std::io::Error::other);
    drop(open()?);
    if spec.kind == Kind::CpDrnDurable {
        drop(open()?);
    }
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box(xs);
    Ok(elapsed)
}

fn run_into(
    spec: &Spec,
    seed: u64,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let setup = Instant::now();
    let xs = spec.generate(seed);
    out.generate_s = setup.elapsed().as_secs_f64();
    let dir = RepDir::fresh(work)?;
    let config = spec.cluster_config(&dir.store());
    let cluster = Cluster::try_new(config.clone())?;
    out.setup_s = setup.elapsed().as_secs_f64();

    match spec.kind {
        Kind::CpDri => {
            for x in &xs {
                let t = Instant::now();
                let res = parafac_als(&cluster, x, spec.rank, &als_options(spec, None))?;
                out.als_s += t.elapsed().as_secs_f64();
                out.count(&res.metrics);
                out.fits.push(res.fit());
                out.failures
                    .extend(checks::check_parafac(spec.name, x, &res));
            }
        }
        Kind::TuckerDri => {
            for x in &xs {
                let t = Instant::now();
                let res = tucker_als(&cluster, x, spec.core, &als_options(spec, None))?;
                out.als_s += t.elapsed().as_secs_f64();
                out.count(&res.metrics);
                out.fits.push(res.fit);
                out.failures
                    .extend(checks::check_tucker(spec.name, x, &res));
            }
        }
        Kind::CpDrnDurable => {
            let x = &xs[0];
            let opts = als_options(spec, Some(dir.prefix()));
            let t = Instant::now();
            let first = parafac_als_checkpointed(&cluster, x, spec.rank, &opts)?;
            out.als_s = t.elapsed().as_secs_f64();
            out.count(&first.metrics);
            drop(cluster);
            out.failures
                .extend(checks::check_parafac("checkpointed run", x, &first));
            out.failures
                .extend(check_saved_state(&dir, &config, &first)?);

            // Resume for one more sweep on a fresh cluster over the same
            // store: opening it is set-up, the resumed sweep is ALS time.
            let reopen = Instant::now();
            let cluster = Cluster::try_new(config)?;
            out.setup_s += reopen.elapsed().as_secs_f64();
            let resumed_opts = AlsOptions {
                max_iters: spec.total_sweeps(),
                ..opts
            };
            let t = Instant::now();
            let resumed = parafac_als_checkpointed(&cluster, x, spec.rank, &resumed_opts)?;
            out.als_s += t.elapsed().as_secs_f64();
            out.count(&resumed.metrics);
            out.fits.push(resumed.fit());
            out.failures
                .extend(checks::check_parafac("resumed run", x, &resumed));
            if resumed.iterations != 1 {
                out.failures.push(format!(
                    "resume ran {} sweeps instead of 1",
                    resumed.iterations
                ));
            }
            if resumed.fit() < first.fit() {
                out.failures.push(format!(
                    "resumed fit {} is below the checkpointed fit {}",
                    resumed.fit(),
                    first.fit()
                ));
            }
        }
    }
    Ok(())
}

/// The state the durable store and the text checkpoint hold after the
/// checkpointed run must be bit-equal to what that run returned (its last
/// sweep was checkpointed). Read through a cluster opened just for the
/// check, so the bytes come from disk.
fn check_saved_state(
    dir: &RepDir,
    config: &haten2_mapreduce::ClusterConfig,
    first: &ParafacResult,
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let returned = (first.lambda.clone(), first.factors.clone());
    let mut out = Vec::new();
    let reader = Cluster::try_new(config.clone())?;
    match load_parafac_state(&reader, &dir.prefix())? {
        Some(stored) if checks::same_bits(&stored, &returned) => {}
        Some(_) => out.push("state loaded from the store differs from the saved state".into()),
        None => out.push("no checkpoint state in the store".into()),
    }
    if !checks::same_bits(&load_parafac(&dir.prefix())?, &returned) {
        out.push("text checkpoint differs from the saved state".into());
    }
    Ok(out)
}
