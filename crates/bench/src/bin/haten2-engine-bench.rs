//! `haten2-engine-bench` — microbenchmark of the MapReduce engine.
//!
//! Runs a shuffle-heavy job mix on the pooled engine, once plain and once
//! with a no-op fault plan installed (the fault-free overhead of the
//! recovery machinery):
//!
//! * **dri-projection** — an IMHP-shaped Tucker projection job: I = 10⁴,
//!   nnz = 10⁵, each entry emitted twice under factor-row keys; the job
//!   class whose shuffle dominates HaTen2-DRI iterations.
//! * **small-jobs** — 300 tiny word-count-style jobs, the per-job-overhead
//!   regime a full decomposition spends most of its job *count* in.
//! * **dag_speedup** — the Naive-Tucker projection sweep (`Q` independent
//!   Bind jobs, then `R` independent Mult jobs) run once under
//!   `SchedulerMode::Sequential` and once under `SchedulerMode::Dag` at
//!   8 threads. Outputs and per-job metrics are asserted bit-identical;
//!   the reported speedup is `sim_sequential_s / sim_makespan_s` from the
//!   scheduler's [`BatchReport`] — the simulated-cluster makespan ratio,
//!   deterministic and independent of host core count — and must be ≥ 2x.
//!
//! * **skew** — the same DRI MTTKRP on a uniform and on a power-law
//!   tensor of identical nnz under the DAG scheduler. The power-law tensor
//!   inflates the heaviest reduce group ~15x; the gate is the *host
//!   wall-clock* makespan ratio skewed/uniform ≤ 1.2x, with the DAG run's
//!   output asserted bit-identical to the Sequential oracle.
//!
//! ```text
//! haten2-engine-bench [--out PATH]   # default: BENCH_engine.json
//! haten2-engine-bench --dag-smoke    # dag_speedup equivalence+speedup only
//! haten2-engine-bench --perf-smoke   # CI gate: dag host speedup + overhead
//! haten2-engine-bench --skew-smoke   # CI gate: skew ratio + bit-identity
//! ```
//!
//! Both mixes run the identical inputs; aggregate metrics are asserted
//! equal before timing is trusted. Wall times are the minimum of [`REPS`]
//! measured repetitions after one warm-up, minimizing scheduler noise;
//! the median and standard deviation across the measured reps are also
//! reported so noisy runs are visible in the JSON. The plain and no-op-fault
//! mixes are interleaved round-robin and their overhead ratio is the median
//! of per-round paired ratios, which cancels host load spikes. Each mix
//! also reports `bytes_allocated` — the cluster's allocation-proxy
//! high-water total (arena reservations plus spill copies), a
//! scheduler-noise-free measure of shuffle allocation traffic.

use haten2_core::tucker::{project, ProjectOptions};
use haten2_core::{parafac, Variant};
use haten2_data::random::{powerlaw_tensor, random_tensor, RandomTensorConfig};
use haten2_linalg::Mat;
use haten2_mapreduce::{
    run_job, BatchReport, Cluster, ClusterConfig, FaultPlan, JobMetrics, JobSpec, SchedulerMode,
};
use haten2_tensor::{CooTensor3, Entry3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DIM_I: u64 = 10_000;
const NNZ: usize = 100_000;
const RANK: usize = 10;
const SMALL_JOBS: usize = 300;
const SMALL_RECORDS: usize = 200;
const REPS: usize = 9;

/// dag_speedup workload: Naive-Tucker sweep shape. `Q = R = DAG_RANK`
/// gives `2·DAG_RANK` jobs at critical-path depth 2, so the simulated
/// 8-thread makespan ratio approaches `DAG_RANK` — far above the asserted
/// 2x floor.
const DAG_DIM: u64 = 24;
const DAG_NNZ: usize = 4_000;
const DAG_RANK: usize = 8;
const DAG_THREADS: usize = 8;
const DAG_MACHINES: usize = 2;

type Entry = ((u64, u64, u64), f64);

fn projection_input(seed: u64) -> Vec<((), Entry)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..NNZ)
        .map(|_| {
            let ix = (
                rng.gen_range(0..DIM_I),
                rng.gen_range(0..DIM_I),
                rng.gen_range(0..DIM_I),
            );
            ((), (ix, rng.gen_range(0.5..2.0)))
        })
        .collect()
}

fn small_job_input(job: u64) -> Vec<(u64, u64)> {
    (0..SMALL_RECORDS as u64)
        .map(|i| (i, (i * 31 + job) % 17))
        .collect()
}

/// The IMHP-shaped mapper: each entry emitted once per joined mode, keyed
/// by (side, index) like the DRI Tucker projection job.
fn projection_mapper(_: &(), e: &Entry, emit: &mut dyn FnMut((u8, u64), Entry)) {
    let (ix, _) = e;
    emit((0, ix.1 % (RANK as u64 * 64)), *e);
    emit((1, ix.2 % (RANK as u64 * 64)), *e);
}

fn projection_reducer(key: &(u8, u64), vals: Vec<Entry>, emit: &mut dyn FnMut((u8, u64), f64)) {
    emit(*key, vals.iter().map(|(_, v)| v).sum());
}

fn small_mapper(k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)) {
    emit(k % 13, *v);
}

fn small_reducer(k: &u64, vals: Vec<u64>, emit: &mut dyn FnMut(u64, u64)) {
    emit(*k, vals.iter().sum());
}

struct MixResult {
    projection_s: f64,
    small_jobs_s: f64,
    metrics_fingerprint: (usize, usize, usize, usize),
    /// (task retries, speculative launches, recovery sim-seconds) — all
    /// zero unless the config carries an injecting fault plan.
    recovery: (usize, usize, f64),
    /// Allocation-proxy bytes charged against the cluster over the mix.
    alloc_bytes: usize,
}

/// Spread statistics over the measured (post-warm-up) repetitions of one
/// mix. The headline time stays the minimum; these make run-to-run noise
/// visible without changing what is compared.
struct Spread {
    median_s: f64,
    stddev_s: f64,
}

fn spread_of(totals: &[f64]) -> Spread {
    let mut sorted = totals.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median_s = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let mean = totals.iter().sum::<f64>() / n as f64;
    let var = totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n as f64;
    Spread {
        median_s,
        stddev_s: var.sqrt(),
    }
}

fn fingerprint(acc: &mut (usize, usize, usize, usize), m: &JobMetrics) {
    acc.0 += m.map_output_records;
    acc.1 += m.map_output_bytes;
    acc.2 += m.shuffle_bytes;
    acc.3 += m.reduce_groups;
}

fn run_pooled_mix(cfg: &ClusterConfig) -> MixResult {
    let mut fp = (0, 0, 0, 0);
    // One cluster for the whole mix: the pool is spawned once and reused,
    // exactly how decomposition drivers use the engine.
    let cluster = Cluster::new(cfg.clone());
    let input = projection_input(7);
    let t = Instant::now();
    run_job(
        &cluster,
        JobSpec::named("dri-projection").with_map_emit_hint(2),
        &input,
        projection_mapper,
        projection_reducer,
    )
    .expect("projection job");
    let projection_s = t.elapsed().as_secs_f64();
    fingerprint(&mut fp, &cluster.metrics().jobs[0]);

    let mark = cluster.jobs_run();
    let t = Instant::now();
    for j in 0..SMALL_JOBS {
        let input = small_job_input(j as u64);
        run_job(
            &cluster,
            JobSpec::named("small").with_map_emit_hint(1),
            &input,
            small_mapper,
            small_reducer,
        )
        .expect("small job");
    }
    let small_jobs_s = t.elapsed().as_secs_f64();
    for m in &cluster.metrics_since(mark).jobs {
        fingerprint(&mut fp, m);
    }
    let all = cluster.metrics();
    MixResult {
        projection_s,
        small_jobs_s,
        metrics_fingerprint: fp,
        recovery: (
            all.total_task_retries(),
            all.total_speculative_launched(),
            all.total_recovery_sim_time_s(),
        ),
        alloc_bytes: cluster.alloc_proxy_bytes(),
    }
}

/// Run every mix once per round, back to back, for [`REPS`] measured
/// rounds after one warm-up round. Interleaving matters on shared hosts: a
/// transient load spike then inflates the same round of *every* mix
/// instead of poisoning one mix's entire sample, so ratios between mixes
/// (the fault-machinery overhead) stay honest. Returns `(best, spread)` per mix, in
/// input order.
struct MixMeasurement {
    best: MixResult,
    spread: Spread,
    /// Per-round totals, index-aligned across the mixes of one
    /// `measure_interleaved` call — the basis for paired ratios.
    totals: Vec<f64>,
}

fn measure_interleaved(mut mixes: Vec<Box<dyn FnMut() -> MixResult + '_>>) -> Vec<MixMeasurement> {
    for m in &mut mixes {
        let _ = m();
    }
    let mut all: Vec<Vec<MixResult>> = (0..mixes.len()).map(|_| Vec::with_capacity(REPS)).collect();
    for _ in 0..REPS {
        for (i, m) in mixes.iter_mut().enumerate() {
            all[i].push(m());
        }
    }
    all.into_iter()
        .map(|runs| {
            for r in &runs[1..] {
                assert_eq!(
                    r.metrics_fingerprint, runs[0].metrics_fingerprint,
                    "nondeterministic metrics"
                );
                assert_eq!(
                    r.alloc_bytes, runs[0].alloc_bytes,
                    "nondeterministic allocation proxy"
                );
            }
            let totals: Vec<f64> = runs
                .iter()
                .map(|r| r.projection_s + r.small_jobs_s)
                .collect();
            let spread = spread_of(&totals);
            let best = runs
                .into_iter()
                .min_by(|a, b| {
                    (a.projection_s + a.small_jobs_s).total_cmp(&(b.projection_s + b.small_jobs_s))
                })
                .expect("at least one rep");
            MixMeasurement {
                best,
                spread,
                totals,
            }
        })
        .collect()
}

/// Median of the index-paired `num[i] / den[i]` ratios. Each pair ran back
/// to back in one interleaved round, so a host load spike inflates both
/// sides of its round and cancels in the ratio — far more robust on a
/// shared machine than dividing two independently-taken minima.
fn median_paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    spread_of(&ratios).median_s
}

// ---- dag_speedup: Naive-Tucker sweep, Sequential vs Dag -----------------

fn dag_tensor(nnz: usize) -> CooTensor3 {
    let mut rng = StdRng::seed_from_u64(42);
    let entries = (0..nnz)
        .map(|_| {
            Entry3::new(
                rng.gen_range(0..DAG_DIM),
                rng.gen_range(0..DAG_DIM),
                rng.gen_range(0..DAG_DIM),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    CooTensor3::from_entries([DAG_DIM; 3], entries).expect("valid dag tensor")
}

fn dag_factor(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_range(0.5..2.0)).collect())
        .collect();
    Mat::from_rows(&data).expect("valid factor")
}

struct SweepRun {
    out: CooTensor3,
    /// Per-job metrics with the host-time fields zeroed (the only fields
    /// allowed to differ between scheduler modes).
    jobs: Vec<JobMetrics>,
    report: BatchReport,
    wall_s: f64,
}

fn run_naive_sweep(mode: SchedulerMode, x: &CooTensor3, bt: &Mat, ct: &Mat) -> SweepRun {
    let cluster = Cluster::new(ClusterConfig {
        scheduler: mode,
        threads: DAG_THREADS,
        ..ClusterConfig::with_machines(DAG_MACHINES)
    });
    let t = Instant::now();
    let out = project(
        &cluster,
        Variant::Naive,
        x,
        0,
        bt,
        ct,
        &ProjectOptions::default(),
    )
    .expect("naive sweep");
    let wall_s = t.elapsed().as_secs_f64();
    let jobs = cluster
        .metrics()
        .jobs
        .into_iter()
        .map(|mut m| {
            m.wall_time_s = 0.0;
            m.started_s = 0.0;
            m.finished_s = 0.0;
            m
        })
        .collect();
    let reports = cluster.batch_reports();
    assert_eq!(reports.len(), 1, "dag_speedup: one batch per sweep");
    SweepRun {
        out,
        jobs,
        report: reports[0].clone(),
        wall_s,
    }
}

fn assert_bit_identical(a: &CooTensor3, b: &CooTensor3) {
    assert_eq!(a.dims(), b.dims(), "dag_speedup: output dims differ");
    assert_eq!(a.nnz(), b.nnz(), "dag_speedup: output nnz differs");
    for (ea, eb) in a.entries().iter().zip(b.entries()) {
        assert_eq!(
            (ea.i, ea.j, ea.k),
            (eb.i, eb.j, eb.k),
            "dag_speedup: output index differs"
        );
        assert_eq!(
            ea.v.to_bits(),
            eb.v.to_bits(),
            "dag_speedup: output value bits differ at ({}, {}, {})",
            ea.i,
            ea.j,
            ea.k
        );
    }
}

struct DagSpeedup {
    sequential_wall_s: f64,
    dag_wall_s: f64,
    host_speedup: f64,
    sim_sequential_s: f64,
    sim_makespan_s: f64,
    sim_speedup: f64,
    jobs: usize,
    critical_path_len: usize,
    /// Host concurrency/load observability from the DAG-mode run: peak
    /// in-flight jobs, per-worker busy seconds, heaviest reduce group.
    peak_concurrency: usize,
    worker_busy_s: Vec<f64>,
    heaviest_group_bytes: usize,
}

/// Run the Naive-Tucker sweep under both scheduler modes, assert the DAG
/// mode changes nothing — outputs bit-identical, per-job metrics equal
/// with host times zeroed, same batch structure and simulated schedule —
/// and return the speedup numbers. The asserted figure is the simulated
/// makespan ratio at [`DAG_THREADS`] threads; host wall times are
/// reported for reference but not asserted (this may run on one core).
fn run_dag_speedup(nnz: usize) -> DagSpeedup {
    let x = dag_tensor(nnz);
    let bt = dag_factor(DAG_RANK, DAG_DIM as usize, 1);
    let ct = dag_factor(DAG_RANK, DAG_DIM as usize, 2);

    let mut seq = run_naive_sweep(SchedulerMode::Sequential, &x, &bt, &ct);
    let mut dag = run_naive_sweep(SchedulerMode::Dag, &x, &bt, &ct);
    assert_bit_identical(&seq.out, &dag.out);
    assert_eq!(seq.jobs, dag.jobs, "dag_speedup: per-job metrics diverged");
    // The deterministic (non-host-time) batch fields must agree exactly;
    // wall_s / busy_s / critical_path_s / peak_concurrency are host
    // measurements and differ between modes by design.
    assert_eq!(
        (seq.report.jobs, seq.report.critical_path_len),
        (dag.report.jobs, dag.report.critical_path_len),
        "dag_speedup: batch structure diverged"
    );
    assert_eq!(
        (
            seq.report.sim_sequential_s.to_bits(),
            seq.report.sim_makespan_s.to_bits()
        ),
        (
            dag.report.sim_sequential_s.to_bits(),
            dag.report.sim_makespan_s.to_bits()
        ),
        "dag_speedup: simulated schedule diverged across modes"
    );
    for _ in 1..REPS {
        let s = run_naive_sweep(SchedulerMode::Sequential, &x, &bt, &ct);
        let d = run_naive_sweep(SchedulerMode::Dag, &x, &bt, &ct);
        assert_bit_identical(&seq.out, &s.out);
        assert_bit_identical(&seq.out, &d.out);
        assert_eq!(seq.jobs, d.jobs, "dag_speedup: nondeterministic metrics");
        if s.wall_s < seq.wall_s {
            seq.wall_s = s.wall_s;
        }
        if d.wall_s < dag.wall_s {
            dag.wall_s = d.wall_s;
        }
    }

    let sim_speedup = dag.report.sim_sequential_s / dag.report.sim_makespan_s;
    assert!(
        sim_speedup >= 2.0,
        "dag_speedup: simulated speedup {sim_speedup:.2}x below the 2x target \
         (sequential {:.6}s, makespan {:.6}s)",
        dag.report.sim_sequential_s,
        dag.report.sim_makespan_s
    );
    DagSpeedup {
        sequential_wall_s: seq.wall_s,
        dag_wall_s: dag.wall_s,
        host_speedup: seq.wall_s / dag.wall_s,
        sim_sequential_s: dag.report.sim_sequential_s,
        sim_makespan_s: dag.report.sim_makespan_s,
        sim_speedup,
        jobs: dag.report.jobs,
        critical_path_len: dag.report.critical_path_len,
        peak_concurrency: dag.report.peak_concurrency,
        worker_busy_s: dag.report.worker_busy_s.clone(),
        heaviest_group_bytes: dag.report.heaviest_group_bytes,
    }
}

// ---- skew: uniform vs power-law DRI MTTKRP ----

/// skew workload shape: cubic I=200 tensors at equal nnz, DRI MTTKRP at
/// rank 8 on an 8-machine cluster — the regime where the power-law
/// tensor's heaviest reduce group inflates ~18x over uniform.
const SKEW_DIM: u64 = 200;
const SKEW_NNZ: usize = 50_000;
const SKEW_RANK: usize = 8;
const SKEW_MACHINES: usize = 8;

fn skew_cluster(scheduler: SchedulerMode) -> Cluster {
    Cluster::new(ClusterConfig {
        scheduler,
        threads: DAG_THREADS,
        ..ClusterConfig::with_machines(SKEW_MACHINES)
    })
}

fn mttkrp_bits(cluster: &Cluster, x: &CooTensor3, f1: &Mat, f2: &Mat) -> Vec<u64> {
    let m = parafac::mttkrp(cluster, Variant::Dri, x, 0, f1, f2).expect("skew: mttkrp");
    m.data().iter().map(|v| v.to_bits()).collect()
}

struct SkewBench {
    jobs: usize,
    uniform_wall_s: f64,
    skewed_wall_s: f64,
    /// Median of per-round paired skewed/uniform host makespan ratios.
    makespan_ratio: f64,
    uniform_heaviest_group_bytes: usize,
    skewed_heaviest_group_bytes: usize,
    peak_concurrency: usize,
    worker_busy_s: Vec<f64>,
}

/// Run the skew pair: assert the DAG run's bits against the Sequential
/// oracle on the power-law tensor, then measure host wall-clock makespans
/// of the DRI MTTKRP on uniform vs power-law tensors of equal nnz,
/// interleaved round-robin so the paired ratio cancels host noise.
fn run_skew(nnz: usize) -> SkewBench {
    let cfg = RandomTensorConfig::cubic(SKEW_DIM, nnz, 0xab2);
    let uniform = random_tensor(&cfg);
    let skewed = powerlaw_tensor(&cfg, 1.0);
    let f1 = dag_factor(SKEW_DIM as usize, SKEW_RANK, 11);
    let f2 = dag_factor(SKEW_DIM as usize, SKEW_RANK, 12);

    // Bit-identity on the skewed tensor: the DAG scheduler vs the
    // Sequential oracle, compared as raw bits.
    let oracle = mttkrp_bits(&skew_cluster(SchedulerMode::Sequential), &skewed, &f1, &f2);
    let bits = mttkrp_bits(&skew_cluster(SchedulerMode::Dag), &skewed, &f1, &f2);
    assert_eq!(bits, oracle, "skew: the DAG run changed the MTTKRP bits");

    // Host makespans, interleaved: one warm-up round, then REPS measured
    // rounds of (uniform, skewed) back to back on fresh clusters.
    let mut uni_totals = Vec::with_capacity(REPS);
    let mut skw_totals = Vec::with_capacity(REPS);
    let mut last_reports: Option<(BatchReport, BatchReport)> = None;
    for rep in 0..=REPS {
        let cu = skew_cluster(SchedulerMode::Dag);
        let t = Instant::now();
        parafac::mttkrp(&cu, Variant::Dri, &uniform, 0, &f1, &f2).expect("skew: uniform mttkrp");
        let u = t.elapsed().as_secs_f64();
        let cs = skew_cluster(SchedulerMode::Dag);
        let t = Instant::now();
        parafac::mttkrp(&cs, Variant::Dri, &skewed, 0, &f1, &f2).expect("skew: skewed mttkrp");
        let s = t.elapsed().as_secs_f64();
        if rep == 0 {
            continue;
        }
        uni_totals.push(u);
        skw_totals.push(s);
        last_reports = Some((
            cu.batch_reports().last().expect("uniform report").clone(),
            cs.batch_reports().last().expect("skewed report").clone(),
        ));
    }
    let (uni_report, skw_report) = last_reports.expect("at least one measured rep");
    SkewBench {
        jobs: skw_report.jobs,
        uniform_wall_s: spread_of(&uni_totals).median_s,
        skewed_wall_s: spread_of(&skw_totals).median_s,
        makespan_ratio: median_paired_ratio(&skw_totals, &uni_totals),
        uniform_heaviest_group_bytes: uni_report.heaviest_group_bytes,
        skewed_heaviest_group_bytes: skw_report.heaviest_group_bytes,
        peak_concurrency: skw_report.peak_concurrency,
        worker_busy_s: skw_report.worker_busy_s,
    }
}

/// Render a `&[f64]` as a JSON array with fixed precision.
fn json_f64_array(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    // Measured builds must not carry the dynamic race detector: the chaos
    // harness turns the `race-detect` feature on for its own dependency
    // tree, and feature unification must never leak it into this binary's.
    assert!(
        !haten2_mapreduce::race_detector_compiled(),
        "engine bench built with the race-detect feature — timings would \
         include detector bookkeeping; run via `cargo run -p haten2-bench`"
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--dag-smoke") {
        // Small-input smoke for scripts/check.sh: the full equivalence
        // assertions and the 2x target, without the engine mixes and
        // without touching BENCH_engine.json.
        let d = run_dag_speedup(DAG_NNZ / 5);
        eprintln!(
            "dag_speedup smoke: {} jobs, critical path {}, simulated speedup {:.2}x \
             (sequential {:.4}s vs makespan {:.4}s at {DAG_THREADS} threads); outputs bit-identical",
            d.jobs, d.critical_path_len, d.sim_speedup, d.sim_sequential_s, d.sim_makespan_s
        );
        return;
    }
    if args.iter().any(|a| a == "--perf-smoke") {
        // CI perf gate for scripts/check.sh: the DAG scheduler must not be
        // slower than Sequential on the host (whatever the core count),
        // and the fault-free overhead of the recovery machinery must stay
        // under 5%. Exits nonzero on regression instead of writing JSON.
        let cfg = ClusterConfig::default();
        let noop_cfg = ClusterConfig {
            fault_plan: Some(FaultPlan::noop()),
            ..cfg.clone()
        };
        let mut results = measure_interleaved(vec![
            Box::new(|| run_pooled_mix(&cfg)),
            Box::new(|| run_pooled_mix(&noop_cfg)),
        ]);
        let noop = results.pop().expect("noop mix measured");
        let pooled = results.pop().expect("pooled mix measured");
        assert_eq!(
            noop.best.metrics_fingerprint, pooled.best.metrics_fingerprint,
            "perf-smoke: a no-op fault plan changed the metrics"
        );
        let overhead_pct = (median_paired_ratio(&noop.totals, &pooled.totals) - 1.0) * 100.0;
        let d = run_dag_speedup(DAG_NNZ);
        eprintln!(
            "perf-smoke: dag host_wall_speedup {:.3}x (sequential {:.4}s vs dag {:.4}s), \
             fault-free overhead {overhead_pct:.2}%",
            d.host_speedup, d.sequential_wall_s, d.dag_wall_s
        );
        let mut failed = false;
        if d.host_speedup < 1.0 {
            eprintln!(
                "perf-smoke FAIL: dag host_wall_speedup {:.3}x < 1.0 — the DAG scheduler \
                 is slower than Sequential on this host",
                d.host_speedup
            );
            failed = true;
        }
        if overhead_pct > 5.0 {
            eprintln!("perf-smoke FAIL: fault-free recovery overhead {overhead_pct:.2}% > 5%");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("perf-smoke: OK");
        return;
    }
    if args.iter().any(|a| a == "--skew-smoke") {
        // CI skew gate for scripts/check.sh: the DRI MTTKRP's host
        // makespan on a power-law tensor must stay within 1.2x of the
        // uniform tensor at equal nnz, and the DAG run's output must be
        // bit-identical to the Sequential oracle (asserted inside
        // run_skew). Smaller input than the JSON run; exits nonzero on
        // regression.
        let s = run_skew(SKEW_NNZ / 5);
        eprintln!(
            "skew smoke: makespan ratio {:.3}x (uniform {:.4}s vs power-law {:.4}s, medians of \
             {REPS} paired rounds); heaviest group {} vs {} bytes; {} jobs; outputs bit-identical",
            s.makespan_ratio,
            s.uniform_wall_s,
            s.skewed_wall_s,
            s.uniform_heaviest_group_bytes,
            s.skewed_heaviest_group_bytes,
            s.jobs
        );
        if s.makespan_ratio > 1.2 {
            eprintln!(
                "skew smoke FAIL: skewed/uniform makespan ratio {:.3}x > 1.2x — the \
                 heavy reduce keys are straggling the DRI merge",
                s.makespan_ratio
            );
            std::process::exit(1);
        }
        eprintln!("skew-smoke: OK");
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let cfg = ClusterConfig::default();
    eprintln!(
        "engine bench: machines={} reducers={} threads={} (I={DIM_I}, nnz={NNZ}, {SMALL_JOBS} small jobs)",
        cfg.machines,
        cfg.num_reducers(),
        cfg.threads
    );

    // Fault-free overhead of the recovery machinery: the same mix with a
    // no-op FaultPlan installed. Schedule expansion and fault accounting
    // run on every job but inject nothing, so any wall-clock delta is the
    // price of *having* the subsystem.
    let noop_cfg = ClusterConfig {
        fault_plan: Some(FaultPlan::noop()),
        ..cfg.clone()
    };
    // The pooled and no-op mixes are the *same* engine on the same data,
    // so they interleave without polluting each other and their
    // paired-per-round ratio isolates the fault-machinery overhead.
    let mut results = measure_interleaved(vec![
        Box::new(|| run_pooled_mix(&cfg)),
        Box::new(|| run_pooled_mix(&noop_cfg)),
    ]);
    let noop_m = results.pop().expect("noop mix measured");
    let pooled_m = results.pop().expect("pooled mix measured");
    let (noop, noop_spread) = (noop_m.best, noop_m.spread);
    let (pooled, pooled_spread) = (pooled_m.best, pooled_m.spread);
    assert_eq!(
        noop.metrics_fingerprint, pooled.metrics_fingerprint,
        "a no-op fault plan changed the metrics"
    );
    assert_eq!(
        noop.recovery,
        (0, 0, 0.0),
        "a no-op fault plan injected recovery work"
    );

    let pooled_total = pooled.projection_s + pooled.small_jobs_s;
    let noop_total = noop.projection_s + noop.small_jobs_s;
    // The overhead ratio comes from paired per-round measurements of the
    // interleaved pooled/no-op pair (see `median_paired_ratio`).
    let fault_free_overhead_pct =
        (median_paired_ratio(&noop_m.totals, &pooled_m.totals) - 1.0) * 100.0;

    eprintln!("dag_speedup: Naive-Tucker sweep, Q=R={DAG_RANK}, {DAG_THREADS} threads");
    let dag = run_dag_speedup(DAG_NNZ);
    eprintln!(
        "skew: DRI MTTKRP uniform vs power-law, I={SKEW_DIM}, nnz={SKEW_NNZ}, \
         R={SKEW_RANK}, {SKEW_MACHINES} machines"
    );
    let skew = run_skew(SKEW_NNZ);

    let json = format!(
        "{{\n  \"benchmark\": \"mapreduce-engine\",\n  \"workload\": {{\n    \"dri_projection\": {{ \"dim_i\": {DIM_I}, \"nnz\": {NNZ}, \"emits_per_entry\": 2 }},\n    \"small_jobs\": {{ \"jobs\": {SMALL_JOBS}, \"records_per_job\": {SMALL_RECORDS} }}\n  }},\n  \"config\": {{ \"machines\": {}, \"reducers\": {}, \"threads\": {} }},\n  \"pooled_engine\": {{ \"projection_s\": {:.6}, \"small_jobs_s\": {:.6}, \"total_s\": {:.6}, \"median_s\": {:.6}, \"stddev_s\": {:.6}, \"bytes_allocated\": {} }},\n  \"noop_fault_plan\": {{ \"projection_s\": {:.6}, \"small_jobs_s\": {:.6}, \"total_s\": {:.6}, \"median_s\": {:.6}, \"stddev_s\": {:.6}, \"bytes_allocated\": {}, \"task_retries\": {}, \"speculative_launched\": {}, \"recovery_sim_time_s\": {:.6} }},\n  \"fault_free_overhead_pct\": {:.3},\n  \"race_detector\": {{ \"compiled_in_bench\": false, \"disabled_overhead_pct\": 0.000, \"gate\": \"asserted off at startup; the race-detect feature is cfg'd out of measured builds, so the disabled detector's overhead is structurally zero (no residual hooks)\" }},\n  \"dag_speedup\": {{\n    \"workload\": \"naive-tucker-sweep\",\n    \"dims\": [{DAG_DIM}, {DAG_DIM}, {DAG_DIM}],\n    \"nnz\": {DAG_NNZ},\n    \"rank_q\": {DAG_RANK},\n    \"rank_r\": {DAG_RANK},\n    \"machines\": {DAG_MACHINES},\n    \"threads\": {DAG_THREADS},\n    \"jobs\": {},\n    \"critical_path_len\": {},\n    \"sim_sequential_s\": {:.6},\n    \"sim_makespan_s\": {:.6},\n    \"sim_speedup\": {:.3},\n    \"sequential_wall_s\": {:.6},\n    \"dag_wall_s\": {:.6},\n    \"host_wall_speedup\": {:.3},\n    \"peak_concurrency\": {},\n    \"worker_busy_s\": {},\n    \"heaviest_group_bytes\": {},\n    \"outputs\": \"bit-identical across scheduler modes (asserted)\"\n  }},\n  \"skew\": {{\n    \"workload\": \"parafac-dri-mttkrp\",\n    \"dims\": [{SKEW_DIM}, {SKEW_DIM}, {SKEW_DIM}],\n    \"nnz\": {SKEW_NNZ},\n    \"rank\": {SKEW_RANK},\n    \"machines\": {SKEW_MACHINES},\n    \"threads\": {DAG_THREADS},\n    \"jobs\": {},\n    \"uniform_wall_s\": {:.6},\n    \"skewed_wall_s\": {:.6},\n    \"makespan_ratio\": {:.3},\n    \"uniform_heaviest_group_bytes\": {},\n    \"skewed_heaviest_group_bytes\": {},\n    \"group_inflation\": {:.1},\n    \"peak_concurrency\": {},\n    \"worker_busy_s\": {},\n    \"outputs\": \"bit-identical to the Sequential oracle (asserted)\",\n    \"timing\": \"medians of {REPS} interleaved paired rounds; ratio is the median of per-round skewed/uniform pairs\"\n  }},\n  \"reps\": {REPS},\n  \"timing\": \"min of {REPS} reps after 1 warm-up round (pooled and no-op interleaved); overhead is the median of per-round paired ratios; bytes_allocated is the cluster allocation-proxy high water\"\n}}\n",
        cfg.machines,
        cfg.num_reducers(),
        cfg.threads,
        pooled.projection_s,
        pooled.small_jobs_s,
        pooled_total,
        pooled_spread.median_s,
        pooled_spread.stddev_s,
        pooled.alloc_bytes,
        noop.projection_s,
        noop.small_jobs_s,
        noop_total,
        noop_spread.median_s,
        noop_spread.stddev_s,
        noop.alloc_bytes,
        noop.recovery.0,
        noop.recovery.1,
        noop.recovery.2,
        fault_free_overhead_pct,
        dag.jobs,
        dag.critical_path_len,
        dag.sim_sequential_s,
        dag.sim_makespan_s,
        dag.sim_speedup,
        dag.sequential_wall_s,
        dag.dag_wall_s,
        dag.host_speedup,
        dag.peak_concurrency,
        json_f64_array(&dag.worker_busy_s),
        dag.heaviest_group_bytes,
        skew.jobs,
        skew.uniform_wall_s,
        skew.skewed_wall_s,
        skew.makespan_ratio,
        skew.uniform_heaviest_group_bytes,
        skew.skewed_heaviest_group_bytes,
        skew.skewed_heaviest_group_bytes as f64 / skew.uniform_heaviest_group_bytes.max(1) as f64,
        skew.peak_concurrency,
        json_f64_array(&skew.worker_busy_s),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    print!("{json}");
    eprintln!(
        "wrote {out_path}; fault-free recovery overhead {fault_free_overhead_pct:.2}%; dag_speedup {:.2}x simulated; skew ratio {:.3}x",
        dag.sim_speedup, skew.makespan_ratio
    );
}
