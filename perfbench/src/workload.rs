//! The three ALS workloads: their inputs (generated from the benchmark's
//! seed), decomposition settings and cluster configuration.
//!
//! Every workload runs a fixed number of sweeps with `tol = 0`, so each
//! repetition does identical work, on a cluster of [`MACHINES`] simulated
//! machines with [`threads`] worker threads, the default `Dag` scheduler
//! and the default rewrite policy. Why each workload exists is recorded
//! in `perfbench/README.md`.

use haten2_data::{powerlaw_tensor, random_tensor, RandomTensorConfig};
use haten2_mapreduce::{ClusterConfig, DfsBackend, DurableConfig};
use haten2_tensor::CooTensor3;
use std::path::Path;

/// Simulated machines in every workload.
pub const MACHINES: usize = 8;

/// Worker threads requested per cluster; capped at the host's cores.
pub const THREADS: usize = 2;

/// Worker threads actually used: [`THREADS`], but never more than the
/// host's available parallelism.
pub fn threads() -> usize {
    THREADS.min(host_cores())
}

/// The host's available parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Names accepted by `--workload`, in presentation order.
pub const NAMES: [&str; 3] = ["cp-dri-uniform", "tucker-dri-powerlaw", "cp-drn-durable"];

/// Which decomposition a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `parafac_als`, DRI, in-memory DFS.
    CpDri,
    /// `tucker_als`, DRI, in-memory DFS.
    TuckerDri,
    /// `parafac_als_checkpointed`, DRN, durable DFS, then a resume on a
    /// fresh cluster.
    CpDrnDurable,
}

/// Tensor generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Generator {
    /// `haten2_data::random_tensor` (uniform coordinates).
    Uniform,
    /// `haten2_data::powerlaw_tensor` with this exponent.
    PowerLaw(f64),
}

/// A fully specified workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Decomposition driver.
    pub kind: Kind,
    /// Tensor generator.
    pub generator: Generator,
    /// Tensor mode sizes.
    pub dims: [u64; 3],
    /// Distinct nonzeros per tensor.
    pub nnz: usize,
    /// Tensors decomposed per repetition. The Tucker workload takes
    /// several: the subspace-iteration work of one Tucker decomposition
    /// swings with its tensor (its time has a standard deviation of about
    /// 11% of the mean between seeds at this size), and a batch of tensors
    /// per repetition averages that out. The durable workload supports
    /// exactly one.
    pub tensors: usize,
    /// PARAFAC rank (PARAFAC workloads).
    pub rank: usize,
    /// Tucker core size (Tucker workload).
    pub core: [usize; 3],
    /// Sweeps of the (first) decomposition call. The durable workload
    /// then resumes for one more sweep.
    pub sweeps: usize,
    /// Resident-cache budget of the durable DFS, below the size of the
    /// checkpointed factor state so that checkpoints spill.
    pub memory_budget_bytes: usize,
}

impl Spec {
    /// The benchmark's workload at full size.
    pub fn full(name: &str) -> Option<Spec> {
        let uniform = Spec {
            name: "cp-dri-uniform",
            kind: Kind::CpDri,
            generator: Generator::Uniform,
            dims: [100_000; 3],
            nnz: 40_000,
            tensors: 1,
            rank: 10,
            core: [0; 3],
            sweeps: 2,
            memory_budget_bytes: 0,
        };
        match name {
            "cp-dri-uniform" => Some(uniform),
            "tucker-dri-powerlaw" => Some(Spec {
                name: "tucker-dri-powerlaw",
                kind: Kind::TuckerDri,
                generator: Generator::PowerLaw(1.0),
                dims: [5_000, 5_000, 400],
                nnz: 10_000,
                tensors: 6,
                rank: 0,
                core: [5; 3],
                sweeps: 2,
                ..uniform
            }),
            "cp-drn-durable" => Some(Spec {
                name: "cp-drn-durable",
                kind: Kind::CpDrnDurable,
                sweeps: 1,
                memory_budget_bytes: 8 << 20,
                ..uniform
            }),
            _ => None,
        }
    }

    /// The same workload shrunk to run in well under a second (smoke
    /// tests). Shapes keep their proportions only roughly; the durable
    /// budget stays below the factor state so spills still happen.
    pub fn tiny(name: &str) -> Option<Spec> {
        let mut s = Spec::full(name)?;
        s.nnz = 400;
        s.dims = match s.kind {
            Kind::TuckerDri => [500, 500, 40],
            _ => [1_000; 3],
        };
        s.tensors = s.tensors.min(2);
        s.rank = s.rank.min(4);
        s.core = s.core.map(|c| c.min(3));
        s.memory_budget_bytes = s.memory_budget_bytes.min(16 << 10);
        Some(s)
    }

    /// Total sweeps the workload runs, resume included.
    pub fn total_sweeps(&self) -> usize {
        match self.kind {
            Kind::CpDrnDurable => self.sweeps + 1,
            _ => self.sweeps,
        }
    }

    /// Generate the workload's tensors from `seed`. Tensor `k` uses the
    /// generator seed `seed·tensors + k`, so two seeds never share a
    /// tensor.
    pub fn generate(&self, seed: u64) -> Vec<CooTensor3> {
        (0..self.tensors as u64)
            .map(|k| {
                let cfg = RandomTensorConfig {
                    dims: self.dims,
                    nnz: self.nnz,
                    value_range: (0.0, 1.0),
                    seed: seed.wrapping_mul(self.tensors as u64).wrapping_add(k),
                };
                match self.generator {
                    Generator::Uniform => random_tensor(&cfg),
                    Generator::PowerLaw(alpha) => powerlaw_tensor(&cfg, alpha),
                }
            })
            .collect()
    }

    /// Cluster configuration; `store_dir` is used by the durable workload
    /// only.
    pub fn cluster_config(&self, store_dir: &Path) -> ClusterConfig {
        let dfs = match self.kind {
            Kind::CpDrnDurable => DfsBackend::Durable(
                DurableConfig::new(store_dir).memory_budget(self.memory_budget_bytes),
            ),
            _ => DfsBackend::Memory,
        };
        ClusterConfig {
            threads: threads(),
            dfs,
            ..ClusterConfig::with_machines(MACHINES)
        }
    }
}
