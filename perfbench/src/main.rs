//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Untraced (`--trace 0`): repeats set-up plus the workload's
//! decomposition call(s) for `S` seconds (at least [`MIN_REPS`] times),
//! checks every output, and prints the end-to-end metrics. Traced
//! (`--trace 1`): alternates untraced repetitions with traced replicas,
//! then runs the single-threaded in-memory baseline once, prints the
//! per-layer metrics and writes the last replica's Chrome trace to
//! `perfbench/out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every decomposition ran and every output check passed.

use perfbench::json::Json;
use perfbench::run::{self, run_untraced, Outcome};
use perfbench::trace::chrome_trace;
use perfbench::traced::{run_traced, Metrics, TracedRep};
use perfbench::workload::{host_cores, threads, Kind, Spec, MACHINES, NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest untraced repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Fewest traced replicas per traced run.
const MIN_TRACED_REPS: usize = 2;

/// Set-up timings per run: each repetition contributes one, extra
/// set-up-only samples make up the rest.
const SETUP_SAMPLES: usize = 9;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Median of `values` (NaN when empty).
fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process high-water resident set size in MiB (`VmHWM`). The benchmark
/// reads it after the first repetition: later repetitions only move it
/// when the allocator happens to keep more memory across them, which made
/// the end-of-run reading swing by a fifth between runs.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The checkout's commit, read from `.git` in the working directory
/// without running git (the benchmark may run where no repository is).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run provenance, printed with every result and stored in the trace.
fn stamp(spec: &Spec, args: &Args, reps: usize) -> Json {
    Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("sweeps", Json::Num(spec.total_sweeps() as f64)),
        ("machines", Json::Num(MACHINES as f64)),
        ("threads", Json::Num(threads() as f64)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("commit", Json::str(commit())),
        ("nnz", Json::Num(spec.nnz as f64)),
        (
            "dims",
            Json::Arr(spec.dims.iter().map(|&d| Json::Num(d as f64)).collect()),
        ),
        ("repetitions", Json::Num(reps as f64)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Checks that outcomes of one seed repeat exactly, and counts failures.
struct Tally {
    attempted: usize,
    failed: usize,
    reference: Option<(u64, usize, usize, Vec<u64>)>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            reference: None,
        }
    }

    /// Count one untraced outcome, adding a failure when its
    /// deterministic fingerprint differs from the first one's.
    fn untraced(&mut self, o: &mut Outcome) {
        if o.failures.is_empty() {
            let fp = o.fingerprint();
            match &self.reference {
                None => self.reference = Some(fp),
                Some(r) if *r == fp => {}
                Some(r) => o.failures.push(format!(
                    "sim_s/jobs/shuffle_bytes/fit {fp:?} differ from the first repetition's {r:?}"
                )),
            }
        }
        self.count(&o.failures);
    }

    fn count(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: FAILED {f}");
            }
        }
    }
}

fn untraced_metrics(
    outcomes: &[Outcome],
    setup_s: &[f64],
    peak_rss_mib: f64,
    tally: &Tally,
) -> Vec<(&'static str, Json)> {
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.failures.is_empty()).collect();
    let med = |f: fn(&Outcome) -> f64| median(&ok.iter().map(|o| f(o)).collect::<Vec<_>>());
    let passed = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    vec![
        ("als_s", metric(med(|o| o.als_s), "s")),
        ("setup_s", metric(median(setup_s), "s")),
        ("peak_rss_mib", metric(peak_rss_mib, "MiB")),
        ("sim_s", metric(med(|o| o.sim_s), "simulated_s")),
        ("checks_passed_frac", metric(passed, "ratio")),
    ]
}

fn traced_metrics(
    outcomes: &[Outcome],
    reps: &[TracedRep],
    baseline_s: &[f64],
) -> Vec<(&'static str, Json)> {
    let als_s = median(&outcomes.iter().map(|o| o.als_s).collect::<Vec<_>>());
    let traced_s = median(&reps.iter().map(|r| r.als_s).collect::<Vec<_>>());
    let baseline = median(baseline_s);
    let mut m = Metrics::new();
    if let Some(first) = reps.first() {
        for (&name, &(_, unit)) in &first.metrics {
            let values: Vec<f64> = reps.iter().map(|r| r.metrics[name].0).collect();
            m.insert(name, (median(&values), unit));
        }
    }
    let generate: Vec<f64> = reps
        .iter()
        .map(|r| r.generate_s)
        .chain(outcomes.iter().map(|o| o.generate_s))
        .collect();
    let unattributed: Vec<f64> = reps
        .iter()
        .map(|r| r.metrics["als.self_s"].0 / r.als_s)
        .collect();
    // Largest replica-minus-driver fit difference over the tensors.
    let fit_delta = match (
        reps.last(),
        outcomes.iter().rfind(|o| o.failures.is_empty()),
    ) {
        (Some(r), Some(o)) if r.fits.len() == o.fits.len() => r
            .fits
            .iter()
            .zip(&o.fits)
            .map(|(a, b)| a - b)
            .fold(
                0.0,
                |worst: f64, d| if d.abs() > worst.abs() { d } else { worst },
            ),
        _ => f64::NAN,
    };
    let final_fit = reps.last().map_or(f64::NAN, |r| {
        r.fits.iter().sum::<f64>() / r.fits.len() as f64
    });
    m.insert("als.final_fit", (final_fit, "ratio"));
    m.insert("data.generate_s", (median(&generate), "s"));
    m.insert("baseline.als_s", (baseline, "s"));
    m.insert("baseline.tax", (als_s / baseline, "ratio"));
    m.insert("trace.overhead_frac", (traced_s / als_s - 1.0, "ratio"));
    m.insert("trace.unattributed_frac", (median(&unattributed), "ratio"));
    m.insert("trace.fit_delta", (fit_delta, "ratio"));
    m.into_iter().map(|(k, (v, u))| (k, metric(v, u))).collect()
}

/// In-memory single-threaded baseline on the same tensor and sweeps.
fn run_baseline(spec: &Spec, seed: u64) -> Result<f64, String> {
    let sweeps = spec.total_sweeps();
    let seed_als = run::als_options(spec, None).seed;
    let mut elapsed = 0.0;
    for x in spec.generate(seed) {
        let t = Instant::now();
        let fit = match spec.kind {
            Kind::TuckerDri => {
                haten2_baseline::tucker_als_baseline(&x, spec.core, sweeps, 0.0, seed_als, None)
                    .map(|r| r.fit)
            }
            _ => haten2_baseline::parafac_als_baseline(&x, spec.rank, sweeps, 0.0, seed_als, None)
                .map(|r| r.fits.last().copied().unwrap_or(f64::NAN)),
        }
        .map_err(|e| format!("{} baseline: {e}", spec.name))?;
        elapsed += t.elapsed().as_secs_f64();
        if !fit.is_finite() {
            return Err(format!("{} baseline: non-finite fit", spec.name));
        }
    }
    Ok(elapsed)
}

/// One traced replica, counted as an attempted decomposition.
fn trace_once(
    spec: &Spec,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    traced: &mut Vec<TracedRep>,
) {
    match run_traced(spec, args.seed, work, traced.len() as u64 + 1) {
        Ok(rep) => {
            tally.count(&[]);
            traced.push(rep);
        }
        Err(e) => tally.count(&[e]),
    }
}

fn write_trace(out_dir: &Path, spec: &Spec, args: &Args, rep: &TracedRep, meta: Json) -> PathBuf {
    let path = out_dir.join(format!("trace-{}-seed{}.json", spec.name, args.seed));
    let doc = chrome_trace(rep.run_id, &rep.spans, &rep.jobs, meta);
    if let Err(e) = std::fs::write(&path, doc.to_string()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    path
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::full(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut tally = Tally::new();
    let mut outcomes = Vec::new();
    let mut traced = Vec::new();
    let min_reps = if args.trace {
        MIN_TRACED_REPS
    } else {
        MIN_REPS
    };
    let mut first_rep_rss_mib = f64::NAN;
    while outcomes.len() < min_reps || start.elapsed() < budget {
        // Traced runs alternate which of the pair goes first, so warm-up
        // effects do not land on one side of trace.overhead_frac.
        let traced_first = args.trace && outcomes.len() % 2 == 1;
        if traced_first {
            trace_once(&spec, &args, &work, &mut tally, &mut traced);
        }
        let mut o = run_untraced(&spec, args.seed, &work);
        if outcomes.is_empty() {
            first_rep_rss_mib = peak_rss_mib();
        }
        tally.untraced(&mut o);
        outcomes.push(o);
        if args.trace && !traced_first {
            trace_once(&spec, &args, &work, &mut tally, &mut traced);
        }
    }
    let mut setup_s: Vec<f64> = outcomes.iter().map(|o| o.setup_s).collect();
    while setup_s.len() < SETUP_SAMPLES {
        match run::setup_only(&spec, args.seed, &work) {
            Ok(s) => setup_s.push(s),
            Err(e) => {
                tally.count(&[format!("{} set-up: {e}", spec.name)]);
                break;
            }
        }
    }
    let baseline_s = if args.trace {
        match run_baseline(&spec, args.seed) {
            Ok(s) => vec![s],
            Err(e) => {
                tally.count(&[e]);
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&work);

    let meta = stamp(&spec, &args, outcomes.len());
    let als_samples: Vec<String> = outcomes.iter().map(|o| format!("{:.4}", o.als_s)).collect();
    eprintln!("perfbench: als_s samples [{}]", als_samples.join(" "));
    if let Some(o) = outcomes.first() {
        eprintln!("perfbench: fit {:?}", o.fits);
    }
    let metrics = if args.trace {
        if let Some(rep) = traced.last() {
            let path = write_trace(&out_dir, &spec, &args, rep, meta.clone());
            eprintln!("perfbench: trace written to {}", path.display());
        }
        traced_metrics(&outcomes, &traced, &baseline_s)
    } else {
        untraced_metrics(&outcomes, &setup_s, first_rep_rss_mib, &tally)
    };

    for (name, m) in &metrics {
        if let Json::Obj(pairs) = m {
            eprintln!("perfbench: {name:<36} {} {}", pairs[0].1, pairs[1].1);
        }
    }
    eprintln!(
        "perfbench: failed_frac {}",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!("perfbench-stamp {meta}");
    let correct = tally.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
