//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * combiner on/off in Collapse jobs (is DNN's win the decoupling or the
//!   map-side aggregation?),
//! * DRN vs DRI with identical math (isolates the job-integration effect).

// Benchmark harness code: `unwrap` on setup is acceptable (workspace
// clippy policy allows it outside library code only via this opt-out).
#![allow(clippy::unwrap_used)]
#![allow(missing_docs)] // criterion_group! generates undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use haten2_core::records::tensor_records;
use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::Variant;
use haten2_data::random::{random_tensor, RandomTensorConfig};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        machines: 8,
        ..Default::default()
    })
}

/// Combiner ablation: the Collapse job of DNN with and without map-side
/// aggregation.
fn ablation_combiner(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_collapse_combiner");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    let x = random_tensor(&RandomTensorConfig::cubic(60, 600, 41));
    let records = tensor_records(&x);
    // Expand to a 4-way-tagged load so the collapse has real work.
    let expanded: Vec<_> = (0..4u64)
        .flat_map(|q| {
            records
                .iter()
                .map(move |&((i, j, k, _), v)| ((i, j, k, q), v * (q + 1) as f64))
        })
        .collect();
    for (label, use_combiner) in [("no_combiner", false), ("with_combiner", true)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                haten2_core::ops::collapse_job(&cluster(), "ablate", &expanded, 1, use_combiner)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// Job-integration ablation: DRN (separate Hadamard jobs) vs DRI (fused
/// IMHP) computing the identical projection.
fn ablation_job_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_drn_vs_dri");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    let i = 60u64;
    let x = random_tensor(&RandomTensorConfig::cubic(i, 600, 42));
    let mut rng = StdRng::seed_from_u64(42);
    let u1 = Mat::random(6, i as usize, &mut rng);
    let u2 = Mat::random(6, i as usize, &mut rng);
    for v in [Variant::Drn, Variant::Dri] {
        g.bench_function(v.name(), |b| {
            b.iter(|| project(&cluster(), v, &x, 0, &u1, &u2, &ProjectOptions::default()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, ablation_combiner, ablation_job_integration);
criterion_main!(benches);
