//! Lineage-based re-derivation of lost DFS datasets.
//!
//! Hadoop survives storage loss by replication; Spark instead records each
//! dataset's *lineage* — the job that produced it — and recomputes lost
//! partitions on demand. This module brings the latter to the engine's
//! pipelines: a [`Lineage`] registry maps dataset names to **recipes**
//! (re-runnable closures that re-execute the producing job), optionally
//! validated against a declarative [`JobGraph`] plan so the registered
//! producer matches the dataset wiring the pipeline published up front.
//!
//! [`crate::pipeline::run_job_dfs_recovering`] consults the registry when
//! an input dataset is missing: the producing job is re-run (recursively
//! re-deriving *its* inputs when those are gone too), the recovery is
//! counted in [`crate::JobMetrics::lineage_recoveries`], and the stage
//! retries. A lost dataset with no recipe surfaces the typed
//! [`crate::MrError::LineageMissing`] instead of a panic.

use crate::plan::JobGraph;
use crate::MrError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Re-derivation recursion bound: a recipe chain deeper than this is
/// assumed cyclic and aborted with [`MrError::LineageMissing`]. Public so
/// the static recoverability pass can prove every plan's re-derivation
/// depth fits under the same bound the runtime enforces.
pub const MAX_RECOVERY_DEPTH: usize = 16;

type RecipeFn = dyn Fn() -> crate::Result<()> + Send + Sync;

#[derive(Clone)]
struct Recipe {
    job: String,
    run: Arc<RecipeFn>,
}

/// Registry of dataset → producing-job recipes for one pipeline run.
///
/// Register a recipe per intermediate dataset as the pipeline is
/// assembled; when a stage finds its input missing, [`Lineage::recover`]
/// re-runs the producer. Registration is validated against the pipeline's
/// [`JobGraph`] when one is attached.
#[derive(Default)]
pub struct Lineage {
    graph: Option<JobGraph>,
    recipes: RwLock<HashMap<String, Recipe>>,
    recoveries: AtomicUsize,
    depth: AtomicUsize,
}

impl Lineage {
    /// Empty registry with no plan attached.
    pub fn new() -> Self {
        Lineage::default()
    }

    /// Registry validated against a pipeline plan: every registration must
    /// name the producing job the graph declares for that dataset.
    pub fn for_plan(graph: JobGraph) -> Self {
        Lineage {
            graph: Some(graph),
            ..Lineage::default()
        }
    }

    /// Register the recipe that re-derives `dataset` by re-running the job
    /// (template) `job`. The closure must be self-contained: re-running
    /// the producing stage end to end (typically a
    /// [`crate::pipeline::run_job_dfs_recovering`] call capturing the
    /// cluster, the DFS, and this registry via `Arc`).
    pub fn register(
        &self,
        dataset: &str,
        job: &str,
        run: impl Fn() -> crate::Result<()> + Send + Sync + 'static,
    ) -> crate::Result<()> {
        if let Some(graph) = &self.graph {
            match graph.producer_of(dataset) {
                Some(planned) if planned == job => {}
                Some(planned) => {
                    return Err(MrError::LineageMismatch {
                        dataset: dataset.to_string(),
                        registered: job.to_string(),
                        planned: planned.to_string(),
                    });
                }
                None => {
                    return Err(MrError::LineageMissing {
                        dataset: dataset.to_string(),
                    });
                }
            }
        }
        self.recipes.write().expect("lineage lock poisoned").insert(
            dataset.to_string(),
            Recipe {
                job: job.to_string(),
                run: Arc::new(run),
            },
        );
        Ok(())
    }

    /// Whether a recipe is registered for `dataset`.
    pub fn knows(&self, dataset: &str) -> bool {
        self.recipes
            .read()
            .expect("lineage lock poisoned")
            .contains_key(dataset)
    }

    /// The producing job the plan declares for `dataset`, when a graph is
    /// attached.
    pub fn planned_producer(&self, dataset: &str) -> Option<&str> {
        self.graph.as_ref().and_then(|g| g.producer_of(dataset))
    }

    /// Re-derive a lost `dataset` by re-running its producing job. Returns
    /// the producer's job name. Recipes may recurse (their own inputs may
    /// be gone too); a chain deeper than the recursion bound fails with
    /// [`MrError::LineageMissing`].
    pub fn recover(&self, dataset: &str) -> crate::Result<String> {
        let recipe = self
            .recipes
            .read()
            .expect("lineage lock poisoned")
            .get(dataset)
            .cloned()
            .ok_or_else(|| MrError::LineageMissing {
                dataset: dataset.to_string(),
            })?;
        if self.depth.fetch_add(1, Ordering::Relaxed) >= MAX_RECOVERY_DEPTH {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(MrError::LineageMissing {
                dataset: dataset.to_string(),
            });
        }
        let result = (recipe.run)();
        self.depth.fetch_sub(1, Ordering::Relaxed);
        result?;
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(recipe.job)
    }

    /// Total successful re-derivations so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Every dataset with a registered recipe, sorted — the runtime-side
    /// coverage the static [`crate::RecoverySpec`] must agree with.
    pub fn covered_datasets(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .recipes
            .read()
            .expect("lineage lock poisoned")
            .keys()
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Datasets `graph` jobs read that are neither driver-provided inputs
    /// nor covered by a registered recipe — the lineage gaps a static
    /// certification would reject. Empty means every intermediate read is
    /// re-derivable.
    pub fn uncovered_reads(&self, graph: &JobGraph) -> Vec<String> {
        let recipes = self.recipes.read().expect("lineage lock poisoned");
        graph
            .intermediate_reads()
            .into_iter()
            .filter(|d| !recipes.contains_key(d))
            .collect()
    }
}

impl std::fmt::Debug for Lineage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let datasets: Vec<String> = self
            .recipes
            .read()
            .expect("lineage lock poisoned")
            .keys()
            .cloned()
            .collect();
        f.debug_struct("Lineage")
            .field("graph", &self.graph.as_ref().map(|g| g.name.clone()))
            .field("datasets", &datasets)
            .field("recoveries", &self.recoveries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JobGraph, PlanJob};

    fn graph() -> JobGraph {
        JobGraph::new("pipe", ["logs"])
            .job(PlanJob::new("count").reads(["logs"]).writes(["counts"]))
            .job(PlanJob::new("max").reads(["counts"]).writes(["max"]))
    }

    #[test]
    fn register_validates_against_graph() {
        let lineage = Lineage::for_plan(graph());
        lineage.register("counts", "count", || Ok(())).unwrap();
        let err = lineage
            .register("counts", "wrong-job", || Ok(()))
            .unwrap_err();
        assert!(matches!(err, MrError::LineageMismatch { .. }));
        let err = lineage.register("unknown", "count", || Ok(())).unwrap_err();
        assert!(matches!(err, MrError::LineageMissing { .. }));
    }

    #[test]
    fn recover_runs_recipe_and_counts() {
        let lineage = Lineage::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        lineage
            .register("counts", "count", move || {
                ran2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert!(lineage.knows("counts"));
        let producer = lineage.recover("counts").unwrap();
        assert_eq!(producer, "count");
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(lineage.recoveries(), 1);
    }

    #[test]
    fn unknown_dataset_is_typed_error() {
        let lineage = Lineage::new();
        let err = lineage.recover("ghost").unwrap_err();
        assert!(matches!(err, MrError::LineageMissing { .. }));
    }

    #[test]
    fn cyclic_recipes_abort() {
        let lineage = Arc::new(Lineage::new());
        let inner = Arc::clone(&lineage);
        lineage
            .register("a", "job-a", move || inner.recover("a").map(|_| ()))
            .unwrap();
        let err = lineage.recover("a").unwrap_err();
        assert!(matches!(err, MrError::LineageMissing { .. }));
    }
}
