//! A debug-feature dynamic race detector for scheduled batches.
//!
//! Compiled only under the `race-detect` cargo feature. The scheduler
//! registers every job of a batch with its *declared-dependency ancestor
//! set* (the transitive closure of `deps()`), then reports each dataset
//! access as it happens: declared reads at job start, handle reads at
//! `JobCtx::get`, declared writes at commit. The detector keeps a
//! per-dataset last-writer/readers table stamped with commit epochs and
//! flags any access whose job is *unordered* with a conflicting prior
//! access — the condition plan-derived read/write sets rule out by
//! construction, so any flag in the chaos harness is a bug in that
//! construction.
//!
//! Ordering is judged against declared dependencies, not wall clock, so a
//! race is flagged deterministically on every run regardless of how the
//! DAG interleaves — including under `SchedulerMode::Sequential`, where the
//! racy schedule happens not to interleave at all.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// One flagged access pair: two jobs touched `dataset` conflictingly with
/// no declared-dependency path between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Dataset both jobs touched.
    pub dataset: String,
    /// Job whose access was recorded first.
    pub first_job: String,
    /// Job whose later access was unordered with the first.
    pub second_job: String,
    /// `"write/write"` or `"read/write"`.
    pub kind: &'static str,
    /// Commit epoch of the detector when the race was observed.
    pub epoch: u64,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on '{}' between '{}' and '{}' (epoch {})",
            self.kind, self.dataset, self.first_job, self.second_job, self.epoch
        )
    }
}

#[derive(Debug, Default)]
struct DatasetState {
    /// Last committed writer (job index) and nothing else: commits happen
    /// in submission order, so one writer slot suffices.
    last_writer: Option<usize>,
    /// Jobs that read the dataset since (and including) the last write.
    readers: Vec<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Per registered job: name and ancestor set (transitive closure of
    /// declared dependencies, fixed at registration).
    jobs: Vec<(String, HashSet<usize>)>,
    /// Per-dataset access table.
    datasets: HashMap<String, DatasetState>,
    /// Commit epoch — advanced once per job commit.
    epoch: u64,
    /// Flagged races, deduplicated by (dataset, pair, kind).
    reports: Vec<RaceReport>,
}

impl Inner {
    /// Is job `a` ordered before (or equal to) job `b` by declared deps?
    fn ordered(&self, a: usize, b: usize) -> bool {
        a == b || self.jobs[b].1.contains(&a) || self.jobs[a].1.contains(&b)
    }

    fn flag(&mut self, dataset: &str, first: usize, second: usize, kind: &'static str) {
        let report = RaceReport {
            dataset: dataset.to_string(),
            first_job: self.jobs[first].0.clone(),
            second_job: self.jobs[second].0.clone(),
            kind,
            epoch: self.epoch,
        };
        if !self.reports.iter().any(|r| {
            r.dataset == report.dataset
                && r.first_job == report.first_job
                && r.second_job == report.second_job
                && r.kind == kind
        }) {
            self.reports.push(report);
        }
    }
}

/// The per-batch detector. All methods take `&self`; the table lives
/// behind one mutex because accesses are rare (per dataset, not per
/// record).
#[derive(Debug, Default)]
pub struct Detector {
    inner: Mutex<Inner>,
}

impl Detector {
    /// Fresh detector for one batch run.
    pub fn new() -> Detector {
        Detector::default()
    }

    /// Register job `index` (submission order) with its direct declared
    /// predecessors; ancestor sets are closed transitively because
    /// predecessors are always registered first.
    pub fn register_job(&self, index: usize, name: &str, preds: &[usize]) {
        let mut g = self.inner.lock().expect("race detector poisoned");
        debug_assert_eq!(g.jobs.len(), index);
        let mut ancestors: HashSet<usize> = preds.iter().copied().collect();
        for &p in preds {
            if let Some((_, pa)) = g.jobs.get(p) {
                ancestors.extend(pa.iter().copied());
            }
        }
        g.jobs.push((name.to_string(), ancestors));
    }

    /// Record a read of `dataset` by job `index`, flagging it when the
    /// last committed writer of any *overlapping* dataset (shard-aware,
    /// [`crate::sched::datasets_overlap`]) is unordered with the reader.
    pub fn note_read(&self, index: usize, dataset: &str) {
        let mut g = self.inner.lock().expect("race detector poisoned");
        let writers: Vec<usize> = g
            .datasets
            .iter()
            .filter(|(name, _)| crate::sched::datasets_overlap(name, dataset))
            .filter_map(|(_, s)| s.last_writer)
            .collect();
        for w in writers {
            if !g.ordered(w, index) {
                g.flag(dataset, w, index, "read/write");
            }
        }
        let state = g.datasets.entry(dataset.to_string()).or_default();
        if !state.readers.contains(&index) {
            state.readers.push(index);
        }
    }

    /// Record a committed write of `dataset` by job `index`, flagging it
    /// against an unordered prior writer or any unordered prior reader of
    /// an overlapping dataset.
    pub fn note_write(&self, index: usize, dataset: &str) {
        let mut g = self.inner.lock().expect("race detector poisoned");
        let mut writers: Vec<usize> = Vec::new();
        let mut readers: Vec<usize> = Vec::new();
        for (name, s) in &g.datasets {
            if crate::sched::datasets_overlap(name, dataset) {
                writers.extend(s.last_writer);
                readers.extend(s.readers.iter().copied());
            }
        }
        for w in writers {
            if !g.ordered(w, index) {
                g.flag(dataset, w, index, "write/write");
            }
        }
        for r in readers {
            if !g.ordered(r, index) {
                g.flag(dataset, r, index, "read/write");
            }
        }
        let state = g.datasets.entry(dataset.to_string()).or_default();
        state.last_writer = Some(index);
        state.readers.clear();
    }

    /// Advance the commit epoch — called once per job commit, in
    /// submission order.
    pub fn commit(&self, _index: usize) {
        self.inner.lock().expect("race detector poisoned").epoch += 1;
    }

    /// Races flagged so far.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.inner
            .lock()
            .expect("race detector poisoned")
            .reports
            .clone()
    }
}

thread_local! {
    /// The job currently executing on this thread, if the scheduler wired
    /// a detector around it. [`Dfs`](crate::Dfs) access hooks report
    /// through this ambient scope, so direct `dfs.get`/`dfs.put` calls
    /// from inside a job closure are tracked without threading a token
    /// through every pipeline helper.
    static CURRENT: RefCell<Option<(Arc<Detector>, usize)>> = const { RefCell::new(None) };
}

/// RAII scope marking the current thread as executing job `index` under
/// `detector`; [`Dfs`](crate::Dfs) accesses on this thread are attributed
/// to that job until the scope drops.
#[derive(Debug)]
pub struct JobScope {
    prev: Option<(Arc<Detector>, usize)>,
}

impl JobScope {
    /// Enter the scope.
    pub fn enter(detector: Arc<Detector>, index: usize) -> JobScope {
        let prev = CURRENT.with(|c| c.replace(Some((detector, index))));
        JobScope { prev }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Report a DFS read of `dataset` by whatever job owns this thread.
pub fn ambient_read(dataset: &str) {
    CURRENT.with(|c| {
        if let Some((det, job)) = c.borrow().as_ref() {
            det.note_read(*job, dataset);
        }
    });
}

/// Report a DFS write (or delete) of `dataset` by whatever job owns this
/// thread.
pub fn ambient_write(dataset: &str) {
    CURRENT.with(|c| {
        if let Some((det, job)) = c.borrow().as_ref() {
            det.note_write(*job, dataset);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_accesses_are_clean() {
        let d = Detector::new();
        d.register_job(0, "a", &[]);
        d.register_job(1, "b", &[0]);
        d.register_job(2, "c", &[1]);
        d.note_write(0, "t");
        d.commit(0);
        d.note_read(1, "t");
        d.note_write(1, "y");
        d.commit(1);
        d.note_read(2, "y");
        d.commit(2);
        assert!(d.reports().is_empty(), "{:?}", d.reports());
    }

    #[test]
    fn unordered_write_write_is_flagged() {
        let d = Detector::new();
        d.register_job(0, "a", &[]);
        d.register_job(1, "b", &[]);
        d.note_write(0, "t");
        d.commit(0);
        d.note_write(1, "t");
        d.commit(1);
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, "write/write");
        assert_eq!(reports[0].dataset, "t");
        assert_eq!(
            (
                reports[0].first_job.as_str(),
                reports[0].second_job.as_str()
            ),
            ("a", "b")
        );
    }

    #[test]
    fn unordered_read_of_committed_write_is_flagged() {
        let d = Detector::new();
        d.register_job(0, "w", &[]);
        d.register_job(1, "r", &[]);
        d.note_write(0, "t");
        d.commit(0);
        d.note_read(1, "t");
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, "read/write");
    }

    #[test]
    fn transitive_ancestors_order_accesses() {
        let d = Detector::new();
        d.register_job(0, "a", &[]);
        d.register_job(1, "b", &[0]);
        d.register_job(2, "c", &[1]);
        d.note_write(0, "t");
        d.commit(0);
        // c never names a directly, but a ∈ ancestors(c) transitively.
        d.note_read(2, "t");
        assert!(d.reports().is_empty());
    }

    #[test]
    fn ambient_scope_attributes_thread_accesses() {
        let d = Arc::new(Detector::new());
        d.register_job(0, "a", &[]);
        d.register_job(1, "b", &[]);
        {
            let _s = JobScope::enter(Arc::clone(&d), 0);
            ambient_write("t");
        }
        {
            let _s = JobScope::enter(Arc::clone(&d), 1);
            ambient_write("t");
        }
        // Outside any scope: silently ignored.
        ambient_read("t");
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, "write/write");
    }

    #[test]
    fn shard_overlap_is_conflict_aware() {
        let d = Detector::new();
        d.register_job(0, "w0", &[]);
        d.register_job(1, "w1", &[]);
        d.register_job(2, "r", &[]);
        d.note_write(0, "t#0");
        d.commit(0);
        // A different shard of the same base never conflicts…
        d.note_write(1, "t#1");
        d.commit(1);
        assert!(d.reports().is_empty(), "{:?}", d.reports());
        // …but an unsharded read of the base conflicts with both writers.
        d.note_read(2, "t");
        assert_eq!(d.reports().len(), 2, "{:?}", d.reports());
    }

    #[test]
    fn unordered_reader_then_writer_is_flagged() {
        let d = Detector::new();
        d.register_job(0, "r", &[]);
        d.register_job(1, "w", &[]);
        d.note_read(0, "t");
        d.note_write(1, "t");
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, "read/write");
        assert_eq!(reports[0].first_job, "r");
    }
}
