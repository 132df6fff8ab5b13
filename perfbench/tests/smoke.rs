//! Tiny-size smoke runs of every workload: the untraced run passes its
//! output checks, the traced replica reproduces its fits bit for bit, and
//! the per-layer metrics add back up to the traced wall time.

use perfbench::run::{run_untraced, setup_only};
use perfbench::traced::run_traced;
use perfbench::workload::{Spec, NAMES};
use std::path::PathBuf;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{tag}"))
}

#[test]
fn every_workload_passes_its_checks_and_replays_under_the_trace() {
    for name in NAMES {
        let spec = Spec::tiny(name).expect("known workload");
        let work = work_dir(name);

        let a = run_untraced(&spec, 7, &work);
        assert!(a.failures.is_empty(), "{name}: {:?}", a.failures);
        assert_eq!(a.fits.len(), spec.tensors);
        assert!(a.als_s > 0.0 && a.setup_s > 0.0 && a.sim_s > 0.0 && a.jobs > 0);
        let b = run_untraced(&spec, 7, &work);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{name}: repetitions differ"
        );
        assert!(setup_only(&spec, 7, &work).expect("set-up") > 0.0);

        let rep = run_traced(&spec, 7, &work, 1).expect("traced run");
        assert_eq!(
            rep.fits, a.fits,
            "{name}: replica fits differ from the driver's"
        );
        let m = &rep.metrics;
        assert_eq!(m["mapreduce.jobs"].0 as usize, a.jobs, "{name}");
        // Layer self times plus the driver's own time cover the traced wall.
        let layers: f64 = [
            "core.kernel_s",
            "linalg.svd_s",
            "linalg.qr_s",
            "linalg.gram_s",
            "linalg.pinv_s",
            "linalg.matmul_s",
            "linalg.normalize_s",
            "tensor.matricize_s",
            "als.fit_s",
            "als.core_s",
            "als.self_s",
            "checkpoint.save_s",
            "store.persist_s",
            "store.load_s",
        ]
        .iter()
        .map(|k| m[k].0)
        .sum();
        assert!(
            (layers - rep.als_s).abs() <= 1e-9 * rep.als_s.max(1.0),
            "{name}: layers {layers} vs traced wall {}",
            rep.als_s
        );
        assert!(!work.exists(), "{name}: work directory left behind");
    }
}

#[test]
fn durable_workload_spills_and_reloads() {
    let spec = Spec::tiny("cp-drn-durable").expect("known workload");
    let rep = run_traced(&spec, 3, &work_dir("durable"), 1).expect("traced run");
    let m = &rep.metrics;
    assert!(m["dfs.spill_events"].0 > 0.0);
    assert!(m["dfs.reload_events"].0 > 0.0);
    assert!(m["store.persist_s"].0 > 0.0 && m["store.load_s"].0 > 0.0);
    assert!(m["sched.peak_concurrency"].0 >= 1.0);
}

#[test]
fn seeds_give_distinct_tensors_and_repeat_exactly() {
    let spec = Spec::tiny("tucker-dri-powerlaw").expect("known workload");
    let a = spec.generate(1);
    let b = spec.generate(1);
    let c = spec.generate(2);
    assert_eq!(a.len(), spec.tensors);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.entries(), y.entries());
    }
    assert!(a
        .iter()
        .all(|x| c.iter().all(|y| x.entries() != y.entries())));
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(Spec::full("no-such-workload").is_none());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
