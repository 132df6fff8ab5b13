//! Mutation property tests for the dynamic race detector.
//!
//! Each case builds a valid writer/reader program — per-column writers
//! `w{}` (x → `d#i`) and readers `r{}` (`d#i` → `y#i`), wired by a
//! [`JobGraph`] — and checks that a real run with the `race-detect`
//! feature's detector flags nothing. Then one of three mutations is
//! applied, either to the template wiring or to a reader's body — drop
//! the readers' declared read, rename the writers' output, or have a
//! reader consume another instance's shard — and, with the declared-
//! dependency gate bypassed (`JobCtx::get_raced`), the detector must flag
//! the unordered conflicting access at runtime.

#![cfg(feature = "race-detect")]
// Test code: `unwrap` is the assertion.
#![allow(clippy::unwrap_used)]

use haten2_mapreduce::{
    run_job, Batch, Cluster, ClusterConfig, JobCtx, JobGraph, JobSpec, PlanJob, RaceReport,
    SchedulerMode, SymExpr,
};
use proptest::prelude::*;

/// Fixed source records every writer maps over.
static INPUT: &[(u64, f64)] = &[(1, 1.0), (2, 2.0), (3, 3.0)];

/// Run one real MapReduce job inside a submitted closure (the scheduler
/// rejects submitted jobs that finish without running one).
fn scale(ctx: &JobCtx<'_>, name: &str, input: &[(u64, f64)], factor: f64) -> Vec<(u64, f64)> {
    #[allow(clippy::expect_used)]
    run_job(
        ctx,
        JobSpec::named(name),
        input,
        move |k, v: &f64, emit| emit(*k, v * factor),
        |k, vs, emit| emit(*k, vs.iter().sum::<f64>()),
    )
    .expect("in-memory job cannot fail")
}

/// One seeded defect in an otherwise valid program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// The reader template declares no read of `d`; every reader still
    /// consumes its writer's handle.
    DropRead,
    /// The writer template writes `u` while readers still consume its
    /// handle (and declare `d`, which nothing writes).
    RenameWrite,
    /// Readers `a` and `b` consume each other's writer's handle: a body
    /// reading another instance's shard.
    SwapReads(usize, usize),
}

/// The program's wiring under `mutation`.
fn plan(mutation: Option<Mutation>) -> JobGraph {
    let writer = PlanJob::new("w{}").repeat(SymExpr::rank_q()).reads(["x"]);
    let writer = if mutation == Some(Mutation::RenameWrite) {
        writer.writes(["u"])
    } else {
        writer.writes(["d"])
    };
    let reader = PlanJob::new("r{}").repeat(SymExpr::rank_q()).writes(["y"]);
    let reader = if mutation == Some(Mutation::DropRead) {
        reader
    } else {
        reader.reads(["d"])
    };
    JobGraph::new("race-demo", ["x"])
        .output("y")
        .job(writer)
        .job(reader)
}

/// The writer whose handle reader `r` consumes under `mutation`.
fn source(r: usize, mutation: Option<Mutation>) -> usize {
    match mutation {
        Some(Mutation::SwapReads(a, b)) if r == a => b,
        Some(Mutation::SwapReads(a, b)) if r == b => a,
        _ => r,
    }
}

/// Run the program (`columns` writers and readers) for real on a
/// sequential cluster, bypassing the declared-dependency gate
/// (`get_raced`), and return what the dynamic detector flagged.
fn run_program(columns: usize, mutation: Option<Mutation>) -> Vec<RaceReport> {
    let c = Cluster::new(ClusterConfig {
        scheduler: SchedulerMode::Sequential,
        ..ClusterConfig::with_machines(2)
    });
    let graph = plan(mutation);
    let mut batch = Batch::new(&graph);
    let mut handles = Vec::new();
    for w in 0..columns {
        handles.push(
            batch
                .submit(format!("w{w}"), move |ctx: &JobCtx<'_>| {
                    Ok(scale(ctx, &format!("w{w}"), INPUT, (w + 1) as f64))
                })
                .unwrap(),
        );
    }
    for r in 0..columns {
        let h = handles[source(r, mutation)].clone();
        batch
            .submit(format!("r{r}"), move |ctx: &JobCtx<'_>| {
                let upstream = ctx.get_raced(&h)?.clone();
                Ok(scale(ctx, &format!("r{r}"), &upstream, 0.5))
            })
            .unwrap();
    }
    batch.run(&c).unwrap();
    c.race_reports()
}

fn has_dynamic_race(reports: &[RaceReport], first: &str, second: &str, dataset: &str) -> bool {
    reports
        .iter()
        .any(|r| r.first_job == first && r.second_job == second && r.dataset == dataset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A well-wired program is clean, even though every reader goes
    /// through the unchecked `get_raced` path.
    #[test]
    fn valid_programs_are_clean(columns in 2usize..6) {
        let reports = run_program(columns, None);
        prop_assert!(reports.is_empty(), "dynamic detector flagged a valid program: {reports:?}");
    }

    /// Dropping the declared read leaves every reader unordered with the
    /// writer whose shard it consumes.
    #[test]
    fn dropped_read_is_caught_dynamically(columns in 2usize..6, pick in 0usize..16) {
        let t = pick % columns;
        let reports = run_program(columns, Some(Mutation::DropRead));
        prop_assert!(
            has_dynamic_race(&reports, &format!("w{t}"), &format!("r{t}"), &format!("d#{t}")),
            "dynamic detector missed the race: {reports:?}"
        );
    }

    /// Renaming the written dataset strands every reader of the old
    /// handle: the handle read now targets a shard outside the reader's
    /// declared set, unordered with its producer.
    #[test]
    fn renamed_write_is_caught_dynamically(columns in 2usize..6, pick in 0usize..16) {
        let t = pick % columns;
        let reports = run_program(columns, Some(Mutation::RenameWrite));
        prop_assert!(
            has_dynamic_race(&reports, &format!("w{t}"), &format!("r{t}"), &format!("u#{t}")),
            "dynamic detector missed the race: {reports:?}"
        );
    }

    /// Two readers consuming each other's shard race *both* against the
    /// writers they actually read.
    #[test]
    fn swapped_shards_are_caught_dynamically(columns in 2usize..6, pick in 0usize..16) {
        let a = pick % columns;
        let b = (a + 1) % columns;
        let reports = run_program(columns, Some(Mutation::SwapReads(a, b)));
        for (reader, writer) in [(a, b), (b, a)] {
            prop_assert!(
                has_dynamic_race(
                    &reports,
                    &format!("w{writer}"),
                    &format!("r{reader}"),
                    &format!("d#{writer}"),
                ),
                "dynamic detector missed reader r{reader}: {reports:?}"
            );
        }
    }
}
