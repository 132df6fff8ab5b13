//! One traced repetition: the replica sweep loops under a span recorder,
//! and the per-layer metrics derived from those spans and from the
//! counters the library already exposes.

use crate::replica;
use crate::run::{als_options, RepDir};
use crate::trace::{totals_by_name, LaneEvent, Recorder, Span};
use crate::workload::{Kind, Spec};
use haten2_core::AlsOptions;
use haten2_mapreduce::{BatchReport, Cluster, JobMetrics};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A per-layer metric: its value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a traced repetition recorded.
#[derive(Debug)]
pub struct TracedRep {
    /// The run id every span shares.
    pub run_id: u64,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// MapReduce jobs on the recorder's clock.
    pub jobs: Vec<LaneEvent>,
    /// Per-layer metrics from this repetition (trace, data and baseline
    /// metrics are added by the caller).
    pub metrics: Metrics,
    /// Summed duration of the `als.call` spans: the traced counterpart of
    /// the untraced run's `als_s`.
    pub als_s: f64,
    /// Tensor generation time.
    pub generate_s: f64,
    /// Final fit of each tensor's replica decomposition.
    pub fits: Vec<f64>,
}

/// Counters read from every cluster the repetition used.
#[derive(Default)]
struct Counters {
    jobs: Vec<JobMetrics>,
    batches: Vec<BatchReport>,
    alloc_proxy_bytes: usize,
    dfs_bytes_written: usize,
    dfs_bytes_read: usize,
    spill_events: usize,
    reload_events: usize,
    reloaded_bytes: usize,
    raw_bytes_written: u64,
    stored_bytes_written: u64,
    dead_stored_bytes: u64,
}

impl Counters {
    /// Add `cluster`'s totals; `offset_s` maps its epoch onto the
    /// recorder's clock.
    fn add(&mut self, cluster: &Cluster, offset_s: f64, lanes: &mut Vec<LaneEvent>) {
        let metrics = cluster.metrics();
        for j in &metrics.jobs {
            lanes.push(LaneEvent {
                name: j.name.clone(),
                start_s: j.started_s + offset_s,
                end_s: j.finished_s + offset_s,
            });
        }
        self.jobs.extend(metrics.jobs);
        self.batches.extend(cluster.batch_reports());
        self.alloc_proxy_bytes += cluster.alloc_proxy_bytes();
        let dfs = cluster.dfs();
        self.dfs_bytes_written += dfs.total_bytes_written();
        self.dfs_bytes_read += dfs.total_bytes_read();
        let spill = dfs.spill_stats();
        self.spill_events += spill.spill_events;
        self.reload_events += spill.reload_events;
        self.reloaded_bytes += spill.reloaded_bytes;
        if let Some(store) = dfs.store_stats() {
            self.raw_bytes_written += store.raw_bytes_written;
            self.stored_bytes_written += store.stored_bytes_written;
            self.dead_stored_bytes += store.dead_stored_bytes;
        }
    }
}

/// Offset from a fresh cluster's epoch to the recorder's clock.
fn clock_offset(rec: &Recorder, cluster: &Cluster) -> f64 {
    rec.now_s() - cluster.since_epoch()
}

/// Run one traced repetition of `spec` on the tensor of `seed`.
pub fn run_traced(spec: &Spec, seed: u64, work: &Path, run_id: u64) -> Result<TracedRep, String> {
    let err = |e: &dyn std::fmt::Display| format!("{} (traced): {e}", spec.name);
    let rec = Recorder::new(run_id);
    let t = Instant::now();
    let xs = spec.generate(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let dir = RepDir::fresh(work).map_err(|e| err(&e))?;
    let config = spec.cluster_config(&dir.store());
    let cluster = Cluster::try_new(config.clone()).map_err(|e| err(&e))?;
    let offset = clock_offset(&rec, &cluster);
    let mut counters = Counters::default();
    let mut lanes = Vec::new();

    let mut fits = Vec::new();
    match spec.kind {
        Kind::CpDri => {
            let opts = als_options(spec, None);
            for x in &xs {
                let sweeps = rec
                    .span("als.call", || {
                        replica::parafac_als(&rec, &cluster, x, spec.rank, &opts, None)
                    })
                    .map_err(|e| err(&e))?;
                fits.push(sweeps.last().copied().unwrap_or(f64::NAN));
            }
            counters.add(&cluster, offset, &mut lanes);
        }
        Kind::TuckerDri => {
            let opts = als_options(spec, None);
            for x in &xs {
                let fit = rec
                    .span("als.call", || {
                        replica::tucker_als(&rec, &cluster, x, spec.core, &opts)
                    })
                    .map_err(|e| err(&e))?;
                fits.push(fit);
            }
            counters.add(&cluster, offset, &mut lanes);
        }
        Kind::CpDrnDurable => {
            let x = &xs[0];
            let opts = als_options(spec, Some(dir.prefix()));
            rec.span("als.call", || {
                replica::parafac_als(&rec, &cluster, x, spec.rank, &opts, None)
            })
            .map_err(|e| err(&e))?;
            counters.add(&cluster, offset, &mut lanes);
            drop(cluster);
            let cluster = Cluster::try_new(config).map_err(|e| err(&e))?;
            let offset = clock_offset(&rec, &cluster);
            let resumed_opts = AlsOptions {
                max_iters: spec.total_sweeps(),
                ..opts
            };
            let sweeps = rec
                .span("als.call", || {
                    replica::parafac_resume(&rec, &cluster, x, spec.rank, &resumed_opts)
                })
                .map_err(|e| err(&e))?;
            counters.add(&cluster, offset, &mut lanes);
            fits.push(sweeps.last().copied().unwrap_or(f64::NAN));
        }
    }

    let spans = rec.spans();
    let metrics = layer_metrics(spec, &spans, &counters);
    let als_s = spans
        .iter()
        .filter(|s| s.name == "als.call")
        .map(Span::duration_s)
        .sum();
    Ok(TracedRep {
        run_id: rec.run_id(),
        spans,
        jobs: lanes,
        metrics,
        als_s,
        generate_s,
        fits,
    })
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced repetition.
fn layer_metrics(spec: &Spec, spans: &[Span], c: &Counters) -> Metrics {
    let totals = totals_by_name(spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls) as f64;
    let mut m = Metrics::new();

    // core: the distributed kernels. Computed flops: a multiply-add per
    // nonzero per output column plus the Hadamard multiply (3 flops).
    let kernel_calls = calls("core.mttkrp") + calls("core.project");
    let kernel_s = total("core.mttkrp") + total("core.project");
    let batch_wall: f64 = c.batches.iter().map(|b| b.wall_s).sum();
    let out_cols = match spec.kind {
        Kind::TuckerDri => spec.core[1] * spec.core[2],
        _ => spec.rank,
    };
    m.insert("core.kernel_s", (kernel_s, "s"));
    m.insert("core.kernel_calls", (kernel_calls, "count"));
    m.insert("core.outside_jobs_s", (kernel_s - batch_wall, "s"));
    m.insert(
        "core.flops",
        (kernel_calls * 3.0 * (spec.nnz * out_cols) as f64, "flop"),
    );

    // mapreduce: the engine's own counters.
    let sum = |f: fn(&JobMetrics) -> usize| c.jobs.iter().map(f).sum::<usize>() as f64;
    let max = |f: fn(&JobMetrics) -> usize| c.jobs.iter().map(f).max().unwrap_or(0) as f64;
    let busy: f64 = c.jobs.iter().map(|j| j.wall_time_s).sum();
    let critical: f64 = c.batches.iter().map(|b| b.critical_path_s).sum();
    let shuffle_bytes = sum(|j| j.shuffle_bytes);
    let map_out = sum(|j| j.map_output_records);
    m.insert("mapreduce.jobs", (c.jobs.len() as f64, "count"));
    m.insert("mapreduce.job_busy_s", (busy, "s"));
    m.insert("mapreduce.batch_wall_s", (batch_wall, "s"));
    m.insert("mapreduce.critical_path_s", (critical, "s"));
    m.insert("mapreduce.map_output_records", (map_out, "count"));
    m.insert(
        "mapreduce.max_intermediate_records",
        (max(|j| j.map_output_records), "count"),
    );
    m.insert("mapreduce.shuffle_bytes", (shuffle_bytes, "bytes"));
    m.insert(
        "mapreduce.shuffle_mib_per_s",
        (ratio(shuffle_bytes / (1 << 20) as f64, batch_wall), "MiB/s"),
    );
    m.insert(
        "mapreduce.shuffle_ratio",
        (ratio(sum(|j| j.shuffle_records), map_out), "ratio"),
    );
    m.insert(
        "mapreduce.reduce_groups",
        (sum(|j| j.reduce_groups), "count"),
    );
    m.insert(
        "mapreduce.max_group_bytes",
        (max(|j| j.max_group_bytes), "bytes"),
    );
    m.insert(
        "mapreduce.task_retries",
        (sum(|j| j.task_retries + j.reduce_task_retries), "count"),
    );
    m.insert(
        "mapreduce.alloc_proxy_bytes",
        (c.alloc_proxy_bytes as f64, "bytes"),
    );

    // sched: how the batches used the worker pool.
    let mut per_worker: Vec<f64> = Vec::new();
    for b in &c.batches {
        if per_worker.len() < b.worker_busy_s.len() {
            per_worker.resize(b.worker_busy_s.len(), 0.0);
        }
        for (slot, s) in b.worker_busy_s.iter().enumerate() {
            per_worker[slot] += s;
        }
    }
    let worker_max = per_worker.iter().copied().fold(0.0, f64::max);
    let worker_mean = ratio(per_worker.iter().sum(), per_worker.len() as f64);
    let batch_busy: f64 = c.batches.iter().map(|b| b.busy_s).sum();
    let peak = c
        .batches
        .iter()
        .map(|b| b.peak_concurrency)
        .max()
        .unwrap_or(0);
    m.insert("sched.peak_concurrency", (peak as f64, "count"));
    m.insert(
        "sched.parallelism",
        (ratio(batch_busy, batch_wall), "ratio"),
    );
    m.insert("sched.wait_s", (batch_wall - critical, "s"));
    m.insert(
        "sched.worker_imbalance",
        (ratio(worker_max, worker_mean), "ratio"),
    );

    // linalg / tensor: driver-side dense algebra (spans have no children
    // except linalg.svd, whose products are linalg.svd_matvec).
    m.insert("linalg.svd_s", (total("linalg.svd"), "s"));
    m.insert("linalg.svd_calls", (calls("linalg.svd"), "count"));
    m.insert("linalg.svd_matvec_s", (total("linalg.svd_matvec"), "s"));
    m.insert("linalg.svd_matvecs", (calls("linalg.svd_matvec"), "count"));
    m.insert("linalg.qr_s", (total("linalg.qr"), "s"));
    m.insert("linalg.gram_s", (total("linalg.gram"), "s"));
    m.insert("linalg.pinv_s", (total("linalg.pinv"), "s"));
    m.insert("linalg.matmul_s", (total("linalg.matmul"), "s"));
    m.insert("linalg.normalize_s", (total("linalg.normalize"), "s"));
    m.insert("tensor.matricize_s", (total("tensor.matricize"), "s"));

    // als: the driver loop itself.
    m.insert("als.fit_s", (total("als.fit"), "s"));
    m.insert("als.core_s", (total("als.core"), "s"));
    m.insert(
        "als.self_s",
        (self_s("als.call") + self_s("als.sweep"), "s"),
    );

    // checkpoint / store / dfs / blockstore.
    m.insert("checkpoint.save_s", (total("checkpoint.save"), "s"));
    m.insert("store.persist_s", (total("store.persist"), "s"));
    m.insert("store.load_s", (total("store.load"), "s"));
    m.insert("dfs.bytes_written", (c.dfs_bytes_written as f64, "bytes"));
    m.insert("dfs.bytes_read", (c.dfs_bytes_read as f64, "bytes"));
    m.insert("dfs.spill_events", (c.spill_events as f64, "count"));
    m.insert("dfs.reload_events", (c.reload_events as f64, "count"));
    m.insert("dfs.reloaded_bytes", (c.reloaded_bytes as f64, "bytes"));
    m.insert(
        "blockstore.stored_bytes_written",
        (c.stored_bytes_written as f64, "bytes"),
    );
    m.insert(
        "blockstore.codec_ratio",
        (
            ratio(c.stored_bytes_written as f64, c.raw_bytes_written as f64),
            "ratio",
        ),
    );
    m.insert(
        "blockstore.dead_bytes_ratio",
        (
            ratio(c.dead_stored_bytes as f64, c.stored_bytes_written as f64),
            "ratio",
        ),
    );
    m
}
