//! Rewrite certification: plan transforms that must preserve meaning and
//! communication budgets.
//!
//! An optimizer that rewrites a [`JobGraph`] (splitting a hot reducer,
//! fusing jobs, re-sharding a merge) can silently break everything the
//! other passes certified: dataset wiring and the communication volume
//! the [`crate::comm`] pass holds to its lower bound. This module makes
//! rewrites *certifiable*: a [`PlanRewrite`] transforms a graph **and
//! declares** its worst-case shuffle inflation; [`certify_rewrite`] then
//! re-checks the output from scratch —
//!
//! 1. **dataflow sanity** — the rewritten graph goes back through
//!    [`crate::dataflow::check_dataflow`]; any wiring defect (dangling
//!    read, lost write, unused dataset) rejects the rewrite;
//! 2. **volume non-inflation** — the rewritten graph's
//!    [`JobGraph::shuffle_bytes`] must stay within the rewrite's declared
//!    factor of the original on every regime environment, so a "heavy
//!    key" mitigation cannot smuggle in an asymptotic communication
//!    regression.
//!
//! Race freedom needs no step of its own: a rewritten graph executed
//! through a `Batch` gets its read/write sets derived from the graph
//! itself, so its schedule orders every conflicting access by
//! construction (DESIGN.md §9).
//!
//! The first real instance is [`HeavyKeySplit`] — the classic two-phase
//! aggregation for skewed reduce keys: the pipeline's final merge job is
//! split into `M` map-side partial-combine jobs (each shuffling `1/M` of
//! the records into a partial output shard) followed by a cheap merge of
//! the `M` partials. Two seeded mutants ([`run_rewrite_rejections`])
//! prove the certifier has teeth: a split that forgets the combine step
//! (inflating volume `M`-fold) and a split whose merge reads a typo'd
//! dataset are both rejected by name.

use crate::{dataflow, Violation};
use haten2_mapreduce::{Env, JobGraph, PlanJob, SymExpr};

/// The rewrite rules this pass can fire, with rationale — the fixture
/// corpus in `crates/xtask/tests/fixtures/` carries one known-bad plan
/// per rule.
pub const REWRITE_RULES: &[(&str, &str)] = &[
    (
        "rewrite-volume-inflation",
        "a rewrite's output graph must keep total shuffle volume within the factor the \
         rewrite declares, on every regime environment",
    ),
    (
        "rewrite-dataflow-broken",
        "a rewrite's output graph must re-pass dataflow from scratch — a transform \
         that breaks wiring is rejected whole",
    ),
];

/// A certifiable plan transform: produces a rewritten graph and declares
/// the worst-case shuffle inflation the transform is allowed to cost.
pub trait PlanRewrite {
    /// Stable rewrite name (what a rejection reports).
    fn name(&self) -> &str;

    /// Declared worst-case shuffle inflation as a rational `(num, den)`:
    /// the certifier enforces
    /// `rewritten_bytes · den ≤ original_bytes · num` everywhere.
    fn declared_inflation(&self) -> (u64, u64);

    /// Transform the graph. Must not mutate the input.
    fn apply(&self, graph: &JobGraph) -> JobGraph;
}

/// Certificate for one rewrite applied to one graph.
#[derive(Debug, Clone)]
pub struct RewriteCert {
    /// Rewrite name.
    pub rewrite: String,
    /// Original graph name.
    pub graph: String,
    /// The rewritten graph (kept so a certified rewrite can be executed
    /// or inspected).
    pub rewritten: JobGraph,
    /// Declared inflation factor, rendered `num/den`.
    pub declared: String,
    /// Everything the re-check found (empty = certified).
    pub violations: Vec<Violation>,
}

impl RewriteCert {
    /// Certified: dataflow-sane and within the declared volume factor.
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Re-check a rewrite's output graph from scratch: dataflow sanity and
/// shuffle-volume non-inflation beyond the declared factor over `envs`.
pub fn certify_rewrite(rewrite: &dyn PlanRewrite, graph: &JobGraph, envs: &[Env]) -> RewriteCert {
    let rewritten = rewrite.apply(graph);
    let (num, den) = rewrite.declared_inflation();
    let declared = format!("{num}/{den}");
    let mut violations = Vec::new();

    // 1. Dataflow sanity of the rewritten wiring. One typo usually trips
    //    several wiring rules (the dangling read *and* the orphaned
    //    write); they describe one defect, so they aggregate into one
    //    rejection.
    let wiring: Vec<String> = dataflow::check_dataflow(&rewritten)
        .iter()
        .map(|v| v.to_string())
        .collect();
    if !wiring.is_empty() {
        violations.push(Violation::RewriteDataflowBroken {
            rewrite: rewrite.name().to_string(),
            graph: graph.name.clone(),
            cause: wiring.join("; "),
        });
    }

    // 2. Volume non-inflation: rewritten · den ≤ original · num.
    let orig = graph.shuffle_bytes();
    let new = rewritten.shuffle_bytes();
    if let Some(env) = envs.iter().find(|e| {
        new.eval(e).saturating_mul(u128::from(den)) > orig.eval(e).saturating_mul(u128::from(num))
    }) {
        violations.push(Violation::RewriteVolumeInflation {
            rewrite: rewrite.name().to_string(),
            graph: graph.name.clone(),
            declared: declared.clone(),
            env: *env,
            original_val: orig.eval(env),
            rewritten_val: new.eval(env),
        });
    }

    RewriteCert {
        rewrite: rewrite.name().to_string(),
        graph: graph.name.clone(),
        rewritten,
        declared,
        violations,
    }
}

// ---------------------------------------------------------------------------
// HeavyKeySplit: two-phase aggregation for a skewed final merge
// ---------------------------------------------------------------------------

/// Two-phase aggregation for a skewed final reduce: split the pipeline's
/// last job (the `CrossMerge`/`PairwiseMerge` that funnels every
/// intermediate record through one reducer key space) into `M` map-side
/// partial-combine jobs — each reading the same inputs but shuffling only
/// its `1/M` hash slice into a private `…_part#i` shard — followed by a
/// merge of the `M` pre-combined partials. Declared inflation 2/1: the
/// partials cross the shuffle a second time, nothing worse.
///
/// The rewrite is legal for exactly the merge jobs the plan marks
/// commutative-associative (`PlanJob::comm_assoc`): pre-combining slices
/// in any grouping must not change the reduced output.
///
/// The transform is static-only: the pipelines always submit their
/// unrewritten plans (a measured runtime split lost to the unsplit merge
/// on every input; see DESIGN.md §12), and the transform is private to
/// this module, so no runtime crate can apply it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplit;

/// Index of the job [`HeavyKeySplit`] targets: the last single-instance
/// comm-assoc job that writes a graph output. `None` means the rewrite is
/// the identity (e.g. the Naive/DNN pipelines, whose final writers are
/// per-rank job families).
fn split_target(graph: &JobGraph) -> Option<usize> {
    graph.jobs.iter().rposition(|j| {
        j.comm_assoc
            && j.writes.iter().any(|w| graph.outputs.contains(w))
            && j.count == SymExpr::c(1)
    })
}

/// The split instances and the `mergeparts` reassembly job that replace
/// `target`. Split instance `i` pre-combines its hash slice map-side into
/// shard `…__part#i`; the merge re-shuffles the `M` partials.
fn split_jobs(target: &PlanJob) -> (PlanJob, PlanJob) {
    let m = SymExpr::machines();
    let part_shard = format!("{}__part#{{}}", target.writes[0]);
    // Each split instance shuffles records/M of the merge's records; floor
    // division makes the cost an upper bound, not generic-position exact.
    let mut split = PlanJob::new(format!("{}-split{{}}", target.name))
        .repeat(m.clone())
        .emits(
            target.records.clone() / m.clone(),
            target.bytes.clone() / m.clone(),
        )
        .upper_bound();
    // The second shuffle of the M pre-combined partials is the entire
    // declared inflation.
    let mut merge = PlanJob::new(format!("{}-mergeparts", target.name))
        .emits(
            m.clone() * (target.records.clone() / m.clone()),
            m.clone() * (target.bytes.clone() / m),
        )
        .upper_bound();
    if let Some(op) = &target.op {
        split = split.op(op);
        merge = merge.op(op);
    }
    split.reads = target.reads.clone();
    split.writes = vec![part_shard.clone()];
    split.comm_assoc = target.comm_assoc;
    merge.reads = vec![part_shard];
    merge.writes = target.writes.clone();
    merge.comm_assoc = target.comm_assoc;
    (split, merge)
}

/// Replace the [`split_target`] merge with `machines` split instances plus
/// a `mergeparts` pass. Returns the graph unchanged when no target exists.
fn heavy_key_split(graph: &JobGraph) -> JobGraph {
    let mut out = graph.clone();
    if let Some(at) = split_target(graph) {
        let (split, merge) = split_jobs(&graph.jobs[at]);
        out.jobs.splice(at..=at, [split, merge]);
    }
    out
}

impl PlanRewrite for HeavyKeySplit {
    fn name(&self) -> &str {
        "heavy-key-split"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        heavy_key_split(graph)
    }
}

// ---------------------------------------------------------------------------
// Rejection demo: seeded broken rewrites
// ---------------------------------------------------------------------------

/// Mutant of [`HeavyKeySplit`] that forgets the map-side combine: every
/// split instance shuffles the *full* record stream, inflating total
/// volume `M`-fold while still declaring 2/1.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplitNoCombine;

impl PlanRewrite for HeavyKeySplitNoCombine {
    fn name(&self) -> &str {
        "heavy-key-split-no-combine"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        let mut out = HeavyKeySplit.apply(graph);
        let Some(at) = split_target(graph) else {
            return out;
        };
        // Restore the pre-split per-instance cost on the split job: M
        // instances each shuffling the whole stream.
        out.jobs[at].records = graph.jobs[at].records.clone();
        out.jobs[at].bytes = graph.jobs[at].bytes.clone();
        out
    }
}

/// Mutant of [`HeavyKeySplit`] whose merge job reads a typo'd partial
/// dataset: the split output is never consumed and the merge reads a
/// dataset nothing writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyKeySplitTypoMerge;

impl PlanRewrite for HeavyKeySplitTypoMerge {
    fn name(&self) -> &str {
        "heavy-key-split-typo-merge"
    }

    fn declared_inflation(&self) -> (u64, u64) {
        (2, 1)
    }

    fn apply(&self, graph: &JobGraph) -> JobGraph {
        let mut out = HeavyKeySplit.apply(graph);
        let Some(at) = split_target(graph) else {
            return out;
        };
        out.jobs[at + 1].reads = vec![format!("{}__parts#{{}}", graph.jobs[at].writes[0])];
        out
    }
}

/// Look up a rewrite (real or seeded mutant) by its stable name — how
/// the `.plan` fixture corpus selects which transform to certify.
pub fn rewrite_by_name(name: &str) -> Option<Box<dyn PlanRewrite>> {
    match name {
        "heavy-key-split" => Some(Box::new(HeavyKeySplit)),
        "heavy-key-split-no-combine" => Some(Box::new(HeavyKeySplitNoCombine)),
        "heavy-key-split-typo-merge" => Some(Box::new(HeavyKeySplitTypoMerge)),
        _ => None,
    }
}

/// One deliberately broken rewrite and what its rejection must name.
pub struct RewriteRejection {
    /// What was broken.
    pub defect: &'static str,
    /// Rewrite name the rejection must carry.
    pub rewrite: &'static str,
    /// Rule the rejection must fire.
    pub rule: &'static str,
    /// Graph the rewrite was applied to.
    pub graph: String,
    /// What the certifier reported.
    pub violations: Vec<Violation>,
    /// Did the certifier reject the mutant naming rewrite and rule?
    pub rejected: bool,
}

/// Certify the real [`HeavyKeySplit`] on `graph` (must pass), then run
/// the two seeded mutants through the certifier; each must be rejected
/// naming the rewrite and firing its rule.
pub fn run_rewrite_rejections(graph: &JobGraph, envs: &[Env]) -> Vec<RewriteRejection> {
    let mut out = Vec::new();
    let good = certify_rewrite(&HeavyKeySplit, graph, envs);
    out.push(RewriteRejection {
        defect: "baseline: two-phase aggregation with map-side combine (must certify)",
        rewrite: "heavy-key-split",
        rule: "none",
        graph: graph.name.clone(),
        rejected: good.certified(),
        violations: good.violations,
    });
    for (defect, rewrite, rule, cert) in [
        (
            "split without map-side combine: M instances each shuffle the full stream",
            "heavy-key-split-no-combine",
            "rewrite-volume-inflation",
            certify_rewrite(&HeavyKeySplitNoCombine, graph, envs),
        ),
        (
            "merge reads a typo'd partial dataset nothing writes",
            "heavy-key-split-typo-merge",
            "rewrite-dataflow-broken",
            certify_rewrite(&HeavyKeySplitTypoMerge, graph, envs),
        ),
    ] {
        let rejected = cert.violations.iter().any(|v| {
            v.kind() == rule
                && matches!(
                    v,
                    Violation::RewriteVolumeInflation { rewrite: r, .. }
                    | Violation::RewriteDataflowBroken { rewrite: r, .. } if r == rewrite
                )
        });
        out.push(RewriteRejection {
            defect,
            rewrite,
            rule,
            graph: graph.name.clone(),
            violations: cert.violations,
            rejected,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::regime_envs;
    use haten2_core::{plan_for, Decomp, Variant};

    #[test]
    fn heavy_key_split_certifies_on_every_merge_pipeline() {
        let envs = regime_envs();
        for decomp in Decomp::ALL {
            for variant in [Variant::Drn, Variant::Dri] {
                let g = plan_for(decomp, variant);
                let cert = certify_rewrite(&HeavyKeySplit, &g, &envs);
                assert!(cert.certified(), "{}: {:?}", cert.graph, cert.violations);
                // The rewrite actually did something: one job became two.
                assert_eq!(cert.rewritten.jobs.len(), g.jobs.len() + 1);
            }
        }
    }

    fn merge_graph() -> JobGraph {
        JobGraph::new("demo", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("demo-expand{}")
                    .repeat(SymExpr::rank_r())
                    .reads(["x"])
                    .writes(["t"])
                    .op("hadamard_vec_job")
                    .emits(SymExpr::nnz(), SymExpr::c(16) * SymExpr::nnz()),
            )
            .job(
                PlanJob::new("demo-merge")
                    .reads(["t"])
                    .writes(["y"])
                    .op("cross_merge_job")
                    .comm_assoc()
                    .emits(SymExpr::nnz(), SymExpr::c(16) * SymExpr::nnz()),
            )
    }

    #[test]
    fn split_replaces_the_final_merge() {
        let g = merge_graph();
        assert_eq!(split_target(&g), Some(1));
        let rw = heavy_key_split(&g);
        assert_eq!(rw.jobs.len(), g.jobs.len() + 1);
        let names: Vec<&str> = rw.jobs.iter().map(|j| j.name.as_str()).collect();
        assert!(names.contains(&"demo-merge-split{}"));
        assert!(names.contains(&"demo-merge-mergeparts"));
        assert!(!names.contains(&"demo-merge"));
        // Split instances write per-slice shards; mergeparts reassembles
        // the original output.
        assert_eq!(rw.jobs[1].writes, ["y__part#{}"]);
        assert_eq!(rw.jobs[2].reads, ["y__part#{}"]);
        assert_eq!(rw.jobs[2].writes, ["y"]);
    }

    #[test]
    fn no_single_instance_merge_means_identity() {
        let g = JobGraph::new("flat", []).big_input("x").output("y").job(
            PlanJob::new("flat-col{}")
                .repeat(SymExpr::rank_r())
                .reads(["x"])
                .writes(["y"])
                .op("collapse_job")
                .comm_assoc()
                .emits(SymExpr::nnz(), SymExpr::c(8) * SymExpr::nnz()),
        );
        assert_eq!(split_target(&g), None);
        assert_eq!(heavy_key_split(&g).jobs.len(), g.jobs.len());
    }

    #[test]
    fn split_preserves_outputs_and_splits_the_merge() {
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let rw = HeavyKeySplit.apply(&g);
        assert_eq!(rw.outputs, g.outputs);
        let names: Vec<&str> = rw.jobs.iter().map(|j| j.name.as_str()).collect();
        assert!(names.contains(&"tucker-dri-crossmerge-split{}"));
        assert!(names.contains(&"tucker-dri-crossmerge-mergeparts"));
        assert!(!names.contains(&"tucker-dri-crossmerge"));
    }

    #[test]
    fn rewrite_is_identity_when_no_target_exists() {
        // tucker-naive's final writer is a per-rank (count = R) job —
        // there is no single-instance comm-assoc merge to split.
        let g = plan_for(Decomp::Tucker, Variant::Naive);
        let rw = HeavyKeySplit.apply(&g);
        assert_eq!(rw.jobs.len(), g.jobs.len());
        // Identity rewrites certify trivially.
        let cert = certify_rewrite(&HeavyKeySplit, &g, &regime_envs());
        assert!(cert.certified());
    }

    #[test]
    fn both_mutants_are_rejected_by_name_and_rule() {
        let envs = regime_envs();
        let g = plan_for(Decomp::Tucker, Variant::Dri);
        let rejections = run_rewrite_rejections(&g, &envs);
        assert_eq!(rejections.len(), 3);
        for r in &rejections {
            assert!(
                r.rejected,
                "'{}' ({}) not handled as expected: {:?}",
                r.defect, r.rewrite, r.violations
            );
        }
    }

    #[test]
    fn volume_inflating_mutant_reports_concrete_byte_counts() {
        let envs = regime_envs();
        let g = plan_for(Decomp::Parafac, Variant::Dri);
        let cert = certify_rewrite(&HeavyKeySplitNoCombine, &g, &envs);
        let v = cert
            .violations
            .iter()
            .find(|v| v.kind() == "rewrite-volume-inflation")
            .expect("mutant must inflate");
        if let Violation::RewriteVolumeInflation {
            original_val,
            rewritten_val,
            declared,
            ..
        } = v
        {
            assert!(rewritten_val > &(2 * original_val));
            assert_eq!(declared, "2/1");
        }
    }
}
