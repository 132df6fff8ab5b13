//! Declarative plans for the eight HaTen2 pipelines.
//!
//! Each (decomposition × variant) pipeline registers a
//! [`JobGraph`] describing exactly what its driver in [`crate::tucker`] /
//! [`crate::parafac`] submits at runtime: the job templates in execution
//! order (with the same names the metered [`haten2_mapreduce::Cluster`]
//! records), the datasets flowing between them, and symbolic per-job
//! intermediate-data expressions over `(nnz, I, J, K, Q, R)`.
//!
//! The `haten2-analyze` crate consumes these graphs to verify the paper's
//! Tables III/IV statically; `haten2-bench` cross-checks the expanded
//! predictions against metered runs (exactly, for the DRI pipelines).
//!
//! **Conventions.** Dimensions are the *canonical* orientation of
//! [`crate::canon::canonicalize`]: `I` is the target-mode dimension, `J`
//! and `K` the remaining modes in ascending original order. For PARAFAC,
//! `Q = R =` the CP rank. Byte expressions reconstruct the engine's exact
//! accounting — per-record key/value sizes come from the very
//! [`EstimateSize`] impls in [`crate::records`] plus the engine's framing
//! constant, so a change to the wire format breaks the cross-check tests
//! rather than silently invalidating the analyzer.
//!
//! **Exactness.** A job's `records`/`bytes` are *exact in generic
//! position* (no zero factor entries, no cancellation — [`PlanJob::exact`]
//! = `true`) or a worst-case upper bound (`false`). All DRI jobs are
//! exact; bounds appear only downstream of a `Collapse`, whose output
//! support (`distinct (i,k) pairs`) is data-dependent.

use crate::records::{HadVal, ImhpVal, MergeVal, NaiveVal};
use crate::Variant;
use haten2_mapreduce::{
    Env, EstimateSize, JobGraph, PlanJob, RecoverySpec, SymExpr, RECORD_FRAMING_BYTES,
};

/// Which decomposition a plan describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decomp {
    /// Tucker projection `Y ← X ×₂ Bᵀ ×₃ Cᵀ` ([`crate::tucker::project`]).
    Tucker,
    /// PARAFAC MTTKRP `M ← X₍ₙ₎ (C ⊙ B)` ([`crate::parafac::mttkrp`]).
    Parafac,
}

impl Decomp {
    /// Both decompositions, Tucker first (paper order).
    pub const ALL: [Decomp; 2] = [Decomp::Tucker, Decomp::Parafac];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Decomp::Tucker => "Tucker",
            Decomp::Parafac => "PARAFAC",
        }
    }
}

impl std::fmt::Display for Decomp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The [`Env`] for one concrete pipeline invocation on a tensor with
/// canonical `dims`, `nnz` nonzeros, core sizes / ranks `q`, `r`, and
/// `machines` machines.
pub fn env_for(dims: [u64; 3], nnz: usize, q: usize, r: usize, machines: usize) -> Env {
    Env {
        nnz: nnz as u64,
        dim_i: dims[0],
        dim_j: dims[1],
        dim_k: dims[2],
        rank_q: q as u64,
        rank_r: r as u64,
        machines: machines as u64,
        // A single-fault budget is the default contract the recoverability
        // pass certifies (and the chaos sweeps inject).
        faults: 1,
        // Default per-reducer memory budget: 1 MiB, matching the order of
        // the spill benchmark's per-machine budgets. Comfortably above the
        // `Mr ≥ 8·max(Q, R)` regime floor the communication bounds assume;
        // callers needing a specific budget override the field directly.
        reducer_memory: 1 << 20,
    }
}

// ---- Per-record byte constants, reconstructed from the real wire sizes ----

fn frame() -> u64 {
    RECORD_FRAMING_BYTES as u64
}

fn ix4_key_bytes() -> u64 {
    (0u64, 0u64, 0u64, 0u64).est_bytes() as u64
}

/// Hadamard job, tensor-entry emission: `u64` key + `HadVal::Ent`.
pub fn had_ent_bytes() -> u64 {
    8 + HadVal::Ent((0, 0, 0, 0), 0.0).est_bytes() as u64 + frame()
}

/// Hadamard job, coefficient emission: `u64` key + `HadVal::Coef`.
pub fn had_coef_bytes() -> u64 {
    8 + HadVal::Coef(0.0).est_bytes() as u64 + frame()
}

/// Collapse job emission: `Ix4` key + `f64` value.
pub fn collapse_bytes() -> u64 {
    ix4_key_bytes() + 0.0f64.est_bytes() as u64 + frame()
}

/// Naive broadcast job emission (entry and coefficient emissions size
/// identically): `Ix4` key + `NaiveVal`.
pub fn naive_bytes() -> u64 {
    ix4_key_bytes() + NaiveVal::Ent(0, 0.0).est_bytes() as u64 + frame()
}

/// IMHP tensor-entry emission: `(u8, u64)` key + `ImhpVal::Ent`.
pub fn imhp_ent_bytes() -> u64 {
    (0u8, 0u64).est_bytes() as u64 + ImhpVal::Ent((0, 0, 0, 0), 0.0).est_bytes() as u64 + frame()
}

/// IMHP factor-row emission, excluding the per-element payload: `(u8,
/// u64)` key + empty `ImhpVal::Row`.
pub fn imhp_row_base_bytes() -> u64 {
    (0u8, 0u64).est_bytes() as u64 + ImhpVal::Row(Vec::new()).est_bytes() as u64 + frame()
}

/// Per-element payload of an IMHP factor row.
pub fn imhp_row_elem_bytes() -> u64 {
    0.0f64.est_bytes() as u64
}

/// CrossMerge / PairwiseMerge emission: `u64` key + `MergeVal`.
pub fn merge_bytes() -> u64 {
    8 + MergeVal {
        side: 0,
        i: 0,
        j: 0,
        k: 0,
        d: 0,
        v: 0.0,
    }
    .est_bytes() as u64
        + frame()
}

// ---- Expression shorthands -------------------------------------------------

fn n() -> SymExpr {
    SymExpr::nnz()
}
fn di() -> SymExpr {
    SymExpr::dim_i()
}
fn dj() -> SymExpr {
    SymExpr::dim_j()
}
fn dk() -> SymExpr {
    SymExpr::dim_k()
}
fn q() -> SymExpr {
    SymExpr::rank_q()
}
fn r() -> SymExpr {
    SymExpr::rank_r()
}
fn c(v: u64) -> SymExpr {
    SymExpr::c(v)
}

/// IMHP job template shared by both DRI pipelines: reads the tensor once,
/// writes both expanded sides. Emits 2 records per nonzero plus one row
/// record per column of each factor; `q_len`/`r_len` are the row lengths
/// (Q and R for Tucker, R and R for PARAFAC).
fn imhp_job(name: &str, q_len: SymExpr, r_len: SymExpr) -> PlanJob {
    let records = c(2) * n() + dj() + dk();
    let bytes = c(2 * imhp_ent_bytes()) * n()
        + (c(imhp_row_base_bytes()) + c(imhp_row_elem_bytes()) * q_len) * dj()
        + (c(imhp_row_base_bytes()) + c(imhp_row_elem_bytes()) * r_len) * dk();
    PlanJob::new(name)
        .reads(["x"])
        .writes(["t_prime", "t_dprime"])
        .op("imhp_job")
        .emits(records, bytes)
}

/// The registered plan for one (decomposition × variant) pipeline.
///
/// Job names, order, counts, and dataset wiring mirror the runtime
/// drivers exactly; the cross-check tests in `haten2-bench` fail if they
/// drift.
pub fn plan_for(decomp: Decomp, variant: Variant) -> JobGraph {
    match (decomp, variant) {
        // -- Tucker (Algorithms 3, 5, 7, 9; Table III) ---------------------
        (Decomp::Tucker, Variant::Naive) => JobGraph::new("tucker-naive", [])
            .big_input("x")
            .output("y")
            .job(
                // Broadcast n-mode vector product per column of B: every
                // coefficient of the length-J vector is shuffled to all
                // I·K fibers — the paper's nnz + I·J·K blowup.
                PlanJob::new("tucker-naive-xv-b{}")
                    .repeat(q())
                    .reads(["x"])
                    .writes(["t"])
                    .op("naive_ttv_job")
                    .comm_assoc()
                    .emits(
                        n() + di() * dj() * dk(),
                        c(naive_bytes()) * (n() + di() * dj() * dk()),
                    ),
            )
            .job(
                PlanJob::new("tucker-naive-tv-c{}")
                    .repeat(r())
                    .reads(["t"])
                    .writes(["y"])
                    .op("naive_ttv_job")
                    .comm_assoc()
                    .emits(
                        n() * q() + di() * q() * dk(),
                        c(naive_bytes()) * (n() * q() + di() * q() * dk()),
                    )
                    // |T| = Q · (distinct (i,k) pairs) ≤ Q·nnz.
                    .upper_bound(),
            ),
        (Decomp::Tucker, Variant::Dnn) => JobGraph::new("tucker-dnn", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("tucker-dnn-had-b{}")
                    .repeat(q())
                    .reads(["x"])
                    .writes(["t_prime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dj(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dj(),
                    ),
            )
            .job(
                PlanJob::new("tucker-dnn-collapse-j")
                    .reads(["t_prime"])
                    .writes(["t"])
                    .op("collapse_job")
                    .comm_assoc()
                    .emits(n() * q(), c(collapse_bytes()) * n() * q()),
            )
            .job(
                PlanJob::new("tucker-dnn-had-c{}")
                    .repeat(r())
                    .reads(["t"])
                    .writes(["y_prime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() * q() + dk(),
                        c(had_ent_bytes()) * n() * q() + c(had_coef_bytes()) * dk(),
                    )
                    .upper_bound(),
            )
            .job(
                // The nnz·Q·R blowup that makes DNN the intermediate-data
                // worst case of the decoupled variants (Table III row 2).
                PlanJob::new("tucker-dnn-collapse-k")
                    .reads(["y_prime"])
                    .writes(["y"])
                    .op("collapse_job")
                    .comm_assoc()
                    .emits(n() * q() * r(), c(collapse_bytes()) * n() * q() * r())
                    .upper_bound(),
            ),
        (Decomp::Tucker, Variant::Drn) => JobGraph::new("tucker-drn", [])
            .big_input("x")
            .big_input("x_bin")
            .output("y")
            .job(
                PlanJob::new("tucker-drn-had-b{}")
                    .repeat(q())
                    .reads(["x"])
                    .writes(["t_prime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dj(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dj(),
                    ),
            )
            .job(
                PlanJob::new("tucker-drn-had-c{}")
                    .repeat(r())
                    .reads(["x_bin"])
                    .writes(["t_dprime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dk(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dk(),
                    ),
            )
            .job(
                PlanJob::new("tucker-drn-crossmerge")
                    .reads(["t_prime", "t_dprime"])
                    .writes(["y"])
                    .op("cross_merge_job")
                    .comm_assoc()
                    .emits(n() * (q() + r()), c(merge_bytes()) * n() * (q() + r())),
            ),
        (Decomp::Tucker, Variant::Dri) => JobGraph::new("tucker-dri", [])
            .big_input("x")
            .output("y")
            .job(imhp_job("tucker-dri-imhp", q(), r()))
            .job(
                PlanJob::new("tucker-dri-crossmerge")
                    .reads(["t_prime", "t_dprime"])
                    .writes(["y"])
                    .op("cross_merge_job")
                    .comm_assoc()
                    .emits(n() * (q() + r()), c(merge_bytes()) * n() * (q() + r())),
            ),

        // -- PARAFAC (Algorithms 4, 6, 8, 10; Table IV) --------------------
        (Decomp::Parafac, Variant::Naive) => JobGraph::new("parafac-naive", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("parafac-naive-xb{}")
                    .repeat(r())
                    .reads(["x"])
                    .writes(["t"])
                    .op("naive_ttv_job")
                    .comm_assoc()
                    .emits(
                        n() + di() * dj() * dk(),
                        c(naive_bytes()) * (n() + di() * dj() * dk()),
                    ),
            )
            .job(
                PlanJob::new("parafac-naive-tc{}")
                    .repeat(r())
                    .reads(["t"])
                    .writes(["y"])
                    .op("naive_ttv_job")
                    .comm_assoc()
                    .emits(n() + di() * dk(), c(naive_bytes()) * (n() + di() * dk()))
                    // |T_r| = distinct (i,k) pairs ≤ nnz.
                    .upper_bound(),
            ),
        (Decomp::Parafac, Variant::Dnn) => JobGraph::new("parafac-dnn", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("parafac-dnn-had-b{}")
                    .repeat(r())
                    .reads(["x"])
                    .writes(["h_b"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dj(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dj(),
                    ),
            )
            .job(
                PlanJob::new("parafac-dnn-col-j{}")
                    .repeat(r())
                    .reads(["h_b"])
                    .writes(["t"])
                    .op("collapse_job")
                    .comm_assoc()
                    .emits(n(), c(collapse_bytes()) * n()),
            )
            .job(
                PlanJob::new("parafac-dnn-had-c{}")
                    .repeat(r())
                    .reads(["t"])
                    .writes(["h_c"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dk(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dk(),
                    )
                    .upper_bound(),
            )
            .job(
                PlanJob::new("parafac-dnn-col-k{}")
                    .repeat(r())
                    .reads(["h_c"])
                    .writes(["y"])
                    .op("collapse_job")
                    .comm_assoc()
                    .emits(n(), c(collapse_bytes()) * n())
                    .upper_bound(),
            ),
        (Decomp::Parafac, Variant::Drn) => JobGraph::new("parafac-drn", [])
            .big_input("x")
            .big_input("x_bin")
            .output("y")
            .job(
                PlanJob::new("parafac-drn-had-b{}")
                    .repeat(r())
                    .reads(["x"])
                    .writes(["t_prime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dj(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dj(),
                    ),
            )
            .job(
                PlanJob::new("parafac-drn-had-c{}")
                    .repeat(r())
                    .reads(["x_bin"])
                    .writes(["t_dprime"])
                    .op("hadamard_vec_job")
                    .emits(
                        n() + dk(),
                        c(had_ent_bytes()) * n() + c(had_coef_bytes()) * dk(),
                    ),
            )
            .job(
                PlanJob::new("parafac-drn-pairwisemerge")
                    .reads(["t_prime", "t_dprime"])
                    .writes(["y"])
                    .op("pairwise_merge_job")
                    .comm_assoc()
                    .emits(c(2) * n() * r(), c(2 * merge_bytes()) * n() * r()),
            ),
        (Decomp::Parafac, Variant::Dri) => JobGraph::new("parafac-dri", [])
            .big_input("x")
            .output("y")
            .job(imhp_job("parafac-dri-imhp", r(), r()))
            .job(
                PlanJob::new("parafac-dri-pairwisemerge")
                    .reads(["t_prime", "t_dprime"])
                    .writes(["y"])
                    .op("pairwise_merge_job")
                    .comm_assoc()
                    .emits(c(2) * n() * r(), c(2 * merge_bytes()) * n() * r()),
            ),
    }
}

/// The static recovery contract of one pipeline: every graph-produced
/// dataset is covered by a lineage recipe (the drivers register one per
/// intermediate when run through [`crate::tucker`]/[`crate::parafac`] with
/// recovery enabled), and iterative (ALS) invocations checkpoint after
/// every sweep — [`crate::als::AlsOptions::checkpoint_every`] defaults to
/// 1, which is exactly the policy published here. The recoverability pass
/// in `haten2-analyze` certifies this spec against the [`plan_for`] graph.
pub fn recovery_for(decomp: Decomp, variant: Variant, sweeps: usize) -> RecoverySpec {
    let graph = plan_for(decomp, variant);
    let mut spec = RecoverySpec::new();
    for ds in graph.produced_datasets() {
        spec = spec.cover(&ds);
    }
    if sweeps > 0 {
        spec = spec.checkpoint(1, sweeps);
    }
    spec
}

/// Communication-bound metadata one pipeline registers: the parameters
/// that instantiate the Ballard–Rouse MTTKRP communication lower bounds
/// (arXiv:1708.07401) for it. The analyzer's `comm` pass combines these
/// with the graph-derived [`JobGraph::shuffle_bytes`] to certify each
/// pipeline's shuffle volume against a principled yardstick.
#[derive(Debug, Clone)]
pub struct CommSpec {
    /// Effective rank: how many factor words combine with each tensor
    /// nonzero per sweep — `Q + R` for the Tucker pipelines (both factor
    /// sides), `2·R` for PARAFAC (the B and C sides of the Khatri–Rao
    /// product). Drives the memory-dependent bound
    /// `nnz · rank_eff · 8 / Mr`.
    pub rank_eff: SymExpr,
    /// Width of the smallest wire record the engine ever shuffles (a
    /// Hadamard coefficient emission: 8-byte key + 8-byte value + record
    /// framing). Drives the memory-independent floor `nnz · w_min`: in
    /// the engine's stateless-mapper, combiner-free model every
    /// contributing nonzero crosses the shuffle at least once, as at
    /// least one record.
    pub min_record_bytes: u64,
}

/// The communication-bound registration for one pipeline. Every variant
/// of a decomposition shares the decomposition's effective rank: the
/// bound is a property of the MTTKRP computation, not of the job layout
/// a variant chooses — that is what makes it a fair yardstick across
/// variants.
pub fn comm_for(decomp: Decomp, _variant: Variant) -> CommSpec {
    let rank_eff = match decomp {
        Decomp::Tucker => q() + r(),
        Decomp::Parafac => c(2) * r(),
    };
    CommSpec {
        rank_eff,
        min_record_bytes: had_coef_bytes(),
    }
}

/// One commutative-associative reducer annotation: the purity-pass site
/// label it covers, plus a pure reference fold the generated property
/// tests exercise (permutation and reassociation invariance, bit-exact on
/// integer-valued inputs).
pub struct ReducerAnnotation {
    /// Site label the determinism pass reports for this reducer: the
    /// enclosing function name for jobs named dynamically, or the job-name
    /// template with `{…}` normalized to `{}`.
    pub site: &'static str,
    /// What the reducer folds, for the report.
    pub summary: &'static str,
    /// The reference fold (all registered reducers accumulate sums of
    /// products; the products are per-record and order-free, so the fold
    /// under test is addition).
    pub reduce: fn(&[f64]) -> f64,
}

fn sum_fold(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Every reducer the plans declare commutative-associative
/// ([`PlanJob::comm_assoc`]). The generated property tests in
/// `crates/core/tests/reducer_properties.rs` derive one proptest per entry
/// here; the determinism pass checks the set agrees with the `comm_assoc`
/// flags on every registered graph.
pub const COMM_ASSOC_REDUCERS: &[ReducerAnnotation] = &[
    ReducerAnnotation {
        site: "naive_ttv_job",
        summary: "dot-product accumulation of entry×coefficient per fiber",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "collapse_job",
        summary: "sum of coinciding entries after dropping one mode",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "cross_merge_job",
        summary: "sum over (j,k) of T'·T'' products per (i,q,r)",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "pairwise_merge_job",
        summary: "sum over (j,k) of matched T'·T'' products per (i,r)",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "model_inner_product_job",
        summary: "partial inner products ⟨X, X̂⟩ per target-mode slice",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "nway-pairwisemerge-mode{}",
        summary: "sum of complete side-products per (index, column)",
        reduce: sum_fold,
    },
    ReducerAnnotation {
        site: "nway-crossmerge-mode{}",
        summary: "sum of cartesian side-products per (index, columns)",
        reduce: sum_fold,
    },
];

/// Whether the plan metadata declares the reducer at `site` (a purity-pass
/// site label) commutative-associative.
pub fn is_comm_assoc_site(site: &str) -> bool {
    COMM_ASSOC_REDUCERS.iter().any(|a| a.site == site)
}

/// The annotation registered for `site`, when there is one.
pub fn comm_assoc_annotation(site: &str) -> Option<&'static ReducerAnnotation> {
    COMM_ASSOC_REDUCERS.iter().find(|a| a.site == site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parafac, tucker};

    fn sample_envs() -> Vec<Env> {
        let mut envs = Vec::new();
        for s in 1..6u64 {
            envs.push(Env {
                nnz: 1000 * s,
                dim_i: 10 + s,
                dim_j: 20 + s,
                dim_k: 30 + s,
                rank_q: 1 + s,
                rank_r: 2 + s,
                machines: 4 * s,
                faults: 1,
                reducer_memory: 1 << 20,
            });
        }
        envs
    }

    #[test]
    fn job_counts_agree_with_driver_formulas() {
        for env in sample_envs() {
            let (qv, rv) = (env.rank_q as usize, env.rank_r as usize);
            for variant in Variant::ALL {
                let g = plan_for(Decomp::Tucker, variant);
                assert_eq!(
                    g.total_jobs().eval(&env),
                    tucker::expected_jobs(variant, qv, rv) as u128,
                    "tucker {variant}"
                );
                let g = plan_for(Decomp::Parafac, variant);
                // PARAFAC plans use R for the rank.
                assert_eq!(
                    g.total_jobs().eval(&env),
                    parafac::expected_jobs(variant, rv) as u128,
                    "parafac {variant}"
                );
            }
        }
    }

    #[test]
    fn expansion_matches_runtime_job_names() {
        let env = env_for([4, 5, 6], 20, 2, 3, 4);
        let g = plan_for(Decomp::Tucker, Variant::Naive);
        let names: Vec<String> = g.expand(&env).into_iter().map(|j| j.name).collect();
        assert_eq!(names[0], "tucker-naive-xv-b0");
        assert_eq!(names[1], "tucker-naive-xv-b1");
        assert_eq!(names[2], "tucker-naive-tv-c0");
        assert_eq!(names.len(), 5);
        let g = plan_for(Decomp::Parafac, Variant::Dri);
        let names: Vec<String> = g.expand(&env).into_iter().map(|j| j.name).collect();
        assert_eq!(names, ["parafac-dri-imhp", "parafac-dri-pairwisemerge"]);
    }

    #[test]
    fn dri_jobs_are_all_exact() {
        let env = env_for([4, 5, 6], 20, 2, 3, 4);
        for decomp in Decomp::ALL {
            for inst in plan_for(decomp, Variant::Dri).expand(&env) {
                assert!(inst.exact, "{decomp} DRI job {} must be exact", inst.name);
            }
        }
    }

    #[test]
    fn comm_assoc_flags_agree_with_registry() {
        // Plan-side `comm_assoc` and the annotation registry must declare
        // the same set: a flag without a registry entry would dodge the
        // generated property test, a registry entry without a flag would
        // leave the determinism pass trusting an unpublished claim.
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                for job in &plan_for(decomp, variant).jobs {
                    let op = job.op.as_deref().expect("every planned job names its op");
                    assert_eq!(
                        job.comm_assoc,
                        is_comm_assoc_site(op),
                        "{decomp} {variant} job {} (op {op})",
                        job.name
                    );
                }
            }
        }
    }

    #[test]
    fn derived_emit_hints_match_deleted_manual_hints() {
        // The drivers used to hard-code map-emit hints (1 everywhere, 2
        // for IMHP); the hints are now derived from the plan IR's emit
        // expressions and must reproduce those values for every job of
        // every registered pipeline.
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let g = plan_for(decomp, variant);
                for job in &g.jobs {
                    let concrete = job.name.replace("{}", "0");
                    let hint = g.emit_hint(&concrete).unwrap_or_else(|| {
                        panic!("{decomp} {variant} {}: no derived hint", job.name)
                    });
                    let want = if job.op.as_deref() == Some("imhp_job") {
                        2
                    } else {
                        1
                    };
                    assert_eq!(hint, want, "{decomp} {variant} {}", job.name);
                }
            }
        }
    }

    #[test]
    fn critical_path_depths_are_constant_per_variant() {
        // Under the DAG scheduler the Table III/IV job counts become
        // critical-path depths: Naive/DRN/DRI collapse to 2 and DNN to 4,
        // independent of tensor size, ranks, or machine count.
        for env in sample_envs() {
            for decomp in Decomp::ALL {
                for (variant, depth) in [
                    (Variant::Naive, 2),
                    (Variant::Dnn, 4),
                    (Variant::Drn, 2),
                    (Variant::Dri, 2),
                ] {
                    assert_eq!(
                        plan_for(decomp, variant).critical_path_jobs().eval(&env),
                        depth,
                        "{decomp} {variant}"
                    );
                }
            }
        }
    }

    #[test]
    fn recovery_spec_covers_every_intermediate_read() {
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let g = plan_for(decomp, variant);
                let spec = recovery_for(decomp, variant, 3);
                for ds in g.intermediate_reads() {
                    assert!(
                        spec.covered.contains(&ds),
                        "{decomp} {variant}: intermediate read '{ds}' uncovered"
                    );
                }
                let cp = spec.checkpoint.expect("sweeps > 0 implies a policy");
                assert_eq!(cp.every, 1);
                assert_eq!(cp.sweeps, 3);
            }
        }
    }

    #[test]
    fn byte_constants_match_wire_format() {
        // Pin the reconstructed constants to the EstimateSize impls; if a
        // record type changes shape, this localizes the breakage.
        assert_eq!(super::had_ent_bytes(), 57);
        assert_eq!(super::had_coef_bytes(), 25);
        assert_eq!(super::collapse_bytes(), 48);
        assert_eq!(super::naive_bytes(), 57);
        assert_eq!(super::imhp_ent_bytes(), 58);
        assert_eq!(super::imhp_row_base_bytes(), 22);
        assert_eq!(super::imhp_row_elem_bytes(), 8);
        assert_eq!(super::merge_bytes(), 49);
    }

    /// Every instance of `graph` at `env`, in template order, with the
    /// `(reads, writes)` a `Batch` derives for it.
    fn derived_wiring(graph: &JobGraph, env: &Env) -> Vec<(String, String, String)> {
        graph
            .expand(env)
            .into_iter()
            .map(|j| {
                let (reads, writes) = graph.instance_datasets(&j.name).unwrap();
                (j.name, reads.join(","), writes.join(","))
            })
            .collect()
    }

    fn wiring(rows: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        rows.iter()
            .map(|(n, r, w)| (n.to_string(), r.to_string(), w.to_string()))
            .collect()
    }

    /// The read/write sets the naive drivers used to hand-write at each
    /// submit site, pinned literally: per-rank PARAFAC chains read their
    /// own shard, while Tucker's `tv-c{}` (count R) reads all of `t`
    /// (count Q).
    #[test]
    fn naive_pipelines_derive_the_hand_written_wiring() {
        let tucker = plan_for(Decomp::Tucker, Variant::Naive);
        assert_eq!(
            derived_wiring(&tucker, &env_for([4, 5, 6], 20, 2, 3, 4)),
            wiring(&[
                ("tucker-naive-xv-b0", "x", "t#0"),
                ("tucker-naive-xv-b1", "x", "t#1"),
                ("tucker-naive-tv-c0", "t", "y#0"),
                ("tucker-naive-tv-c1", "t", "y#1"),
                ("tucker-naive-tv-c2", "t", "y#2"),
            ])
        );
        let parafac = plan_for(Decomp::Parafac, Variant::Naive);
        assert_eq!(
            derived_wiring(&parafac, &env_for([4, 5, 6], 20, 3, 3, 4)),
            wiring(&[
                ("parafac-naive-xb0", "x", "t#0"),
                ("parafac-naive-xb1", "x", "t#1"),
                ("parafac-naive-xb2", "x", "t#2"),
                ("parafac-naive-tc0", "t#0", "y#0"),
                ("parafac-naive-tc1", "t#1", "y#1"),
                ("parafac-naive-tc2", "t#2", "y#2"),
            ])
        );
    }
}
