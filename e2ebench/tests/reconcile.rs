//! Gate of the traced run: on every workload, every record's spans along
//! its blocking path must be complete, ordered and nested (so the
//! per-layer self times partition its end-to-end latency), and every
//! phase's egress must replay bit-exact.

use std::collections::HashMap;
use std::path::PathBuf;

use e2ebench::apps::{dedup::Dedup, hashsearch::HashSearch, mandel::Mandel, Params};
use e2ebench::path::{run_phase, App, Phase, PhaseOut};

fn params(kv: &[(&str, &str)]) -> Params {
    Params(
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect::<HashMap<_, _>>(),
    )
}

fn dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("reconcile-{name}"))
}

/// A traced drain round of `drain` records and a traced paced phase;
/// both must be bit-exact, and the paced spans must be well formed.
fn check<A: App>(mut app: A, name: &str, drain: usize) -> (PhaseOut, PhaseOut) {
    app.build_reference();
    let drain = run_phase(
        &app,
        &dir(name),
        &Phase {
            records: drain,
            rate: None,
            traced: true,
        },
    );
    let paced = run_phase(
        &app,
        &dir(name),
        &Phase {
            records: 60,
            rate: Some(100.0),
            traced: true,
        },
    );
    for p in [&drain, &paced] {
        assert_eq!(p.failed, 0, "{name}: egress differs from the reference");
        assert_eq!(p.copies.bytes_copied(), 0, "{name}: staging copies");
    }
    assert!(paced.paced_valid(), "{name}: paced phase overloaded");
    let rec = paced.probe.reconcile(app.path());
    assert_eq!(rec.records, 60, "{name}: every paced record is stamped");
    assert_eq!(rec.violations, 0, "{name}: spans out of order or unnested");
    (drain, paced)
}

#[test]
fn mandel_reconciles() {
    let p = params(&[("dim", "64"), ("niter", "200"), ("rows", "8")]);
    let (drain, _) = check(Mandel::new(3, &p, false), "mandel", 16);
    assert_eq!(drain.probe.counter("workload.retries"), 0);
    assert_eq!(drain.probe.counter("workload.fallbacks"), 0);
}

#[test]
fn mandel_faults_walk_the_whole_ladder_and_reconcile() {
    let p = params(&[("dim", "64"), ("niter", "200"), ("rows", "8")]);
    let (drain, paced) = check(Mandel::new(3, &p, true), "mandel-faults", 800);
    for phase in [&drain, &paced] {
        assert!(phase.probe.counter("workload.retries") > 0);
    }
    let fallbacks =
        drain.probe.counter("workload.fallbacks") + paced.probe.counter("workload.fallbacks");
    assert!(
        fallbacks > 0,
        "the fault schedule must force a CPU fallback"
    );
}

#[test]
fn dedup_reconciles() {
    let p = params(&[
        ("segment_kib", "4"),
        ("segments", "8"),
        ("lzss_window", "256"),
    ]);
    let (drain, _) = check(Dedup::new(3, &p), "dedup", 16);
    assert!(drain.probe.counter("dedup.blocks") > 0);
}

#[test]
fn hashsearch_reconciles() {
    let p = params(&[("ranges", "16"), ("range_nonces", "64"), ("top", "4")]);
    let (drain, paced) = check(HashSearch::new(3, &p), "hashsearch", 32);
    for phase in [&drain, &paced] {
        assert_eq!(phase.probe.counter("taskgraph.id_mismatch"), 0);
        assert_eq!(
            phase.sched.expect("placed").decisions,
            phase.attempted,
            "one placement decision per record"
        );
    }
}

#[test]
fn oracles_reject_a_corrupted_result() {
    let p = params(&[("ranges", "4"), ("range_nonces", "32"), ("top", "2")]);
    let mut app = HashSearch::new(5, &p);
    app.build_reference();
    let out = run_phase(
        &app,
        &dir("oracle"),
        &Phase {
            records: 4,
            rate: None,
            traced: false,
        },
    );
    assert_eq!(out.failed, 0);
    assert!(!app.check_record(0, b"not a top-k"));
    assert!(!app.check_pass(&[b"", b"", b"", b""]));
}
