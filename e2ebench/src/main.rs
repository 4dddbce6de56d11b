//! `e2ebench` — one run of one workload; prints one JSON object as its
//! last stdout line: `{"correct", "attempted", "failed", "metrics"}` with
//! bare metric values (`run.py` attaches the units from BENCHMARK.json).
//!
//! ```text
//! e2ebench --workload <mandel|mandel-faults|dedup|hashsearch> --seed <n>
//!          --seconds <s> --trace <0|1> [--out-dir <dir>]
//!          --set <key>=<value> ...
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: repeated drain rounds
//! (median throughput and modeled busy time over the rounds), one paced
//! open-loop phase (median latency over all its records), and the median
//! of every set-up. `--trace 1` measures the per-layer metrics: untraced
//! and traced drain rounds on identical work (trace overhead), then a
//! traced paced phase whose spans must be complete, ordered and nested;
//! the spans and the per-layer self-time table go to
//! `<out-dir>/<workload>-seed<n>.trace.json`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use e2ebench::apps::{dedup::Dedup, hashsearch::HashSearch, mandel::Mandel, Params};
use e2ebench::path::{run_phase, setup_only, App, Phase, PhaseOut};
use e2ebench::stats::{median, quantile, scaled};
use e2ebench::trace;

/// Drain rounds run at least this often per mode, at most this often.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 400;
/// Paced records of the traced run at least, so its p99 has ten samples
/// beyond it.
const TRACED_PACED_MIN: usize = 1100;
/// Stand-alone set-ups timed after each drain round, so the set-up
/// samples spread over the whole run.
const SETUPS_PER_ROUND: usize = 4;
/// Set-ups timed per run at least (phases plus stand-alone set-ups).
const SETUP_SAMPLES: usize = 41;
/// Share of the run the drain rounds get at least.
const MIN_DRAIN_SHARE: f64 = 0.3;

/// Top-level and child layers reported as `share.<layer>`.
const LAYERS: &[&str] = &[
    "loadgen.lag",
    "ingress.append",
    "ingress.log_wait",
    "ingress.poll",
    "fastflow.channel",
    "fastflow.dispatch",
    "fastflow.hop",
    "fastflow.reorder",
    "dedup.chunk",
    "dedup.dupcheck",
    "workload.process",
    "workload.device",
    "workload.cpu",
    "taskgraph.place",
    "taskgraph.observe",
    "egress.encode",
    "egress.write",
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    params: Params,
}

fn parse() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("e2ebench/out"),
        params: Params(HashMap::new()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => o.trace = val != "0",
            "--out-dir" => o.out_dir = PathBuf::from(&val),
            "--set" => {
                let (k, v) = val
                    .split_once('=')
                    .ok_or(format!("--set {val}: want key=value"))?;
                o.params.0.insert(k.to_string(), v.to_string());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, p) = (opts.seed, &opts.params);
    let result = match opts.workload.as_str() {
        "mandel" => bench(Mandel::new(seed, p, false), &opts),
        "mandel-faults" => bench(Mandel::new(seed, p, true), &opts),
        "dedup" => bench(Dedup::new(seed, p), &opts),
        "hashsearch" => bench(HashSearch::new(seed, p), &opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Shared per-run settings.
struct Plan {
    dir: RunDir,
    drain_records: usize,
    paced_records: usize,
    rate: f64,
    drain_budget: Duration,
}

fn bench<A: App>(mut app: A, o: &Opts) -> Result<String, String> {
    let t = Instant::now();
    app.build_reference();
    let seq_rps = app.pass_len() as f64 / t.elapsed().as_secs_f64();

    let mut paced_records: usize = o.params.get("paced_records");
    if o.trace {
        paced_records = paced_records.max(TRACED_PACED_MIN);
    }
    let rate: f64 = o.params.get("paced_rate_rps");
    let paced_s = paced_records as f64 / rate;
    let plan = Plan {
        dir: RunDir(
            o.out_dir
                .join(format!("run-{}-{}", o.workload, std::process::id())),
        ),
        drain_records: o.params.get("drain_records"),
        paced_records,
        rate,
        drain_budget: Duration::from_secs_f64(
            (o.seconds - paced_s).max(MIN_DRAIN_SHARE * o.seconds),
        ),
    };
    if o.trace {
        traced(&app, o, &plan, seq_rps)
    } else {
        untraced(&app, &plan)
    }
}

/// The run's log directory, removed when the run ends, panics included.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn drain(plan: &Plan, traced: bool) -> Phase {
    Phase {
        records: plan.drain_records,
        rate: None,
        traced,
    }
}

fn paced(plan: &Plan, traced: bool) -> Phase {
    Phase {
        records: plan.paced_records,
        rate: Some(plan.rate),
        traced,
    }
}

/// Max over devices of modeled busy time (H2D + kernel + D2H), ms.
fn modeled_busy_ms(p: &PhaseOut) -> f64 {
    p.devices
        .iter()
        .map(|d| d.total_busy().as_nanos())
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

fn ms(ns: &[u64]) -> Vec<f64> {
    scaled(ns, 1e-6)
}

/// The end-to-end metrics.
fn untraced<A: App>(app: &A, plan: &Plan) -> Result<String, String> {
    let start = Instant::now();
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    while rounds.len() < MIN_ROUNDS
        || (start.elapsed() < plan.drain_budget && rounds.len() < MAX_ROUNDS)
    {
        rounds.push(run_phase(app, &plan.dir.0, &drain(plan, false)));
        setups.extend((0..SETUPS_PER_ROUND).map(|_| setup_only(app, &plan.dir.0)));
    }
    let paced = run_phase(app, &plan.dir.0, &paced(plan, false));
    eprintln!(
        "e2ebench: {} drain rounds of {} records, records/s: {}",
        rounds.len(),
        plan.drain_records,
        rounds
            .iter()
            .map(|r| format!("{:.0}", r.rps()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    warn_poll_retries(&rounds.iter().chain([&paced]).collect::<Vec<_>>());
    if !paced.paced_valid() {
        return Err(format!(
            "paced phase overloaded (backlog grew to {}): no latency reported",
            paced.backlog.iter().max().unwrap_or(&0)
        ));
    }
    setups.extend(rounds.iter().chain([&paced]).map(|p| p.setup_s));
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only(app, &plan.dir.0));
    }
    let phases: Vec<&PhaseOut> = rounds.iter().chain([&paced]).collect();
    let mut lat = ms(&paced.latencies_ns);
    eprintln!(
        "e2ebench: paced latency over {} records, ms: p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        lat.len(),
        quantile(&mut lat, 0.5),
        quantile(&mut lat, 0.9),
        quantile(&mut lat, 0.95),
        quantile(&mut lat, 0.99),
        quantile(&mut lat, 1.0)
    );
    let mut m = BTreeMap::new();
    m.insert(
        "throughput_rps",
        median(&mut rounds.iter().map(PhaseOut::rps).collect::<Vec<_>>()),
    );
    m.insert("latency_p50_ms", median(&mut lat));
    m.insert(
        "modeled_busy_ms",
        median(&mut rounds.iter().map(modeled_busy_ms).collect::<Vec<_>>()),
    );
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("setup_s", median(&mut setups));
    Ok(result_line(&phases, &m, true))
}

/// The per-layer metrics.
fn traced<A: App>(app: &A, o: &Opts, plan: &Plan, seq_rps: f64) -> Result<String, String> {
    let start = Instant::now();
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    while timed.len() < MIN_ROUNDS
        || (start.elapsed() < plan.drain_budget && timed.len() < MAX_ROUNDS)
    {
        plain.push(run_phase(app, &plan.dir.0, &drain(plan, false)));
        timed.push(run_phase(app, &plan.dir.0, &drain(plan, true)));
    }
    // The overhead ratio compares identical work on both sides.
    for (u, t) in plain.iter().zip(&timed) {
        assert_eq!(
            (u.attempted, u.input_bytes),
            (t.attempted, t.input_bytes),
            "traced and untraced rounds must push the same records and bytes"
        );
    }
    let untraced_rps = median(&mut plain.iter().map(PhaseOut::rps).collect::<Vec<_>>());
    let traced_rps = median(&mut timed.iter().map(PhaseOut::rps).collect::<Vec<_>>());
    let paced = run_phase(app, &plan.dir.0, &paced(plan, true));
    let path = app.path();
    let rec = paced.probe.reconcile(path);
    std::fs::create_dir_all(&o.out_dir).map_err(|e| e.to_string())?;
    let trace_file = o
        .out_dir
        .join(format!("{}-seed{}.trace.json", o.workload, o.seed));
    std::fs::write(&trace_file, paced.probe.chrome_trace(path, "records", &rec))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!(
        "e2ebench: trace of {} paced records in {} ({} violations)",
        rec.records,
        trace_file.display(),
        rec.violations
    );

    let all: Vec<&PhaseOut> = timed.iter().chain([&paced]).collect();
    let series =
        |name: &str| -> Vec<u64> { all.iter().flat_map(|p| p.probe.samples(name)).collect() };
    let count = |name: &str| -> u64 { all.iter().map(|p| p.probe.counter(name)).sum() };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let q = |name: &str, scale: f64, p: f64| quantile(&mut scaled(&series(name), scale), p);
    let per_round =
        |f: &dyn Fn(&PhaseOut) -> f64| median(&mut timed.iter().map(f).collect::<Vec<_>>());
    let dev_sum = |p: &PhaseOut, f: &dyn Fn(&gpusim::DeviceStats) -> f64| -> f64 {
        p.devices.iter().map(f).sum()
    };

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let mut append = scaled(&paced.append_ns, 1e-3);
    m.insert("ingress.append_us_p50", quantile(&mut append, 0.5));
    m.insert("ingress.append_us_p99", quantile(&mut append, 0.99));
    m.insert(
        "ingress.poll_us_per_rec",
        ratio(count("ingress.poll_ns"), count("ingress.polled")) / 1e3,
    );
    m.insert("ingress.bytes", count("ingress.bytes") as f64);
    m.insert(
        "ingress.backlog_max",
        paced.backlog.iter().copied().max().unwrap_or(0) as f64,
    );
    m.insert("loadgen.lag_p99_ms", quantile(&mut ms(&paced.lag_ns), 0.99));
    let mut lat = ms(&paced.latencies_ns);
    m.insert("paced.latency_p90_ms", quantile(&mut lat, 0.9));
    m.insert("paced.latency_p99_ms", quantile(&mut lat, 0.99));
    m.insert(
        "loadgen.invalid_runs",
        f64::from(u8::from(!paced.paced_valid())),
    );

    let mut recv = scaled(&paced.probe.samples("fastflow.recv_wait_ns"), 1e-3);
    m.insert("fastflow.recv_wait_us_p50", quantile(&mut recv, 0.5));
    m.insert("fastflow.recv_wait_us_p99", quantile(&mut recv, 0.99));
    let sink_at = path
        .slots
        .iter()
        .position(|&s| s == trace::SINK)
        .expect("path has a sink");
    let done_slot = path.slots[sink_at - 1];
    let mut reorder: Vec<f64> = (0..paced.attempted)
        .map(|i| {
            paced
                .probe
                .get(i, trace::SINK)
                .saturating_sub(paced.probe.get(i, done_slot)) as f64
                / 1e3
        })
        .collect();
    m.insert("fastflow.reorder_wait_us_p50", quantile(&mut reorder, 0.5));
    m.insert("fastflow.reorder_wait_us_p99", quantile(&mut reorder, 0.99));
    let (hits, misses) = all
        .iter()
        .fold((0, 0), |(h, s), p| (h + p.pool.hits, s + p.pool.misses));
    m.insert("fastflow.pool_hit_ratio", ratio(hits, hits + misses));

    m.insert("dedup.chunk_us_p50", q("dedup.chunk_ns", 1e-3, 0.5));
    m.insert("dedup.dupcheck_us_p50", q("dedup.dupcheck_ns", 1e-3, 0.5));
    m.insert(
        "dedup.dup_ratio",
        ratio(count("dedup.dup_blocks"), count("dedup.blocks")),
    );

    m.insert("taskgraph.place_ns_p50", q("taskgraph.place_ns", 1.0, 0.5));
    m.insert("taskgraph.place_ns_p99", q("taskgraph.place_ns", 1.0, 0.99));
    let (res_hits, decisions) = all
        .iter()
        .filter_map(|p| p.sched)
        .fold((0, 0), |(h, d), s| (h + s.residency_hits, d + s.decisions));
    m.insert("taskgraph.residency_hit_ratio", ratio(res_hits, decisions));
    m.insert(
        "taskgraph.busy_imbalance",
        per_round(&|p| {
            let busy: Vec<f64> = p
                .devices
                .iter()
                .map(|d| d.total_busy().as_nanos() as f64)
                .collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            if mean == 0.0 {
                0.0
            } else {
                busy.iter().copied().fold(0.0, f64::max) / mean
            }
        }),
    );

    m.insert(
        "workload.process_us_p50",
        q("workload.process_ns", 1e-3, 0.5),
    );
    m.insert(
        "workload.process_us_p99",
        q("workload.process_ns", 1e-3, 0.99),
    );
    m.insert("workload.device_us_p50", q("workload.device_ns", 1e-3, 0.5));
    m.insert(
        "workload.device_us_p99",
        q("workload.device_ns", 1e-3, 0.99),
    );
    m.insert(
        "workload.cpu_us_total",
        count("workload.cpu_ns") as f64 / 1e3,
    );
    m.insert("workload.retries", count("workload.retries") as f64);
    m.insert("workload.fallbacks", count("workload.fallbacks") as f64);
    m.insert(
        "workload.first_try_ratio",
        ratio(count("workload.first_try"), count("workload.walks")),
    );

    m.insert(
        "gpusim.h2d_ms",
        per_round(&|p| dev_sum(p, &|d| d.h2d_busy.as_nanos() as f64) / 1e6),
    );
    m.insert(
        "gpusim.kernel_ms",
        per_round(&|p| dev_sum(p, &|d| d.compute_busy.as_nanos() as f64) / 1e6),
    );
    m.insert(
        "gpusim.d2h_ms",
        per_round(&|p| dev_sum(p, &|d| d.d2h_busy.as_nanos() as f64) / 1e6),
    );
    m.insert(
        "gpusim.h2d_bytes",
        per_round(&|p| dev_sum(p, &|d| d.h2d_bytes as f64)),
    );
    m.insert(
        "gpusim.d2h_bytes",
        per_round(&|p| dev_sum(p, &|d| d.d2h_bytes as f64)),
    );
    m.insert(
        "gpusim.kernels",
        per_round(&|p| dev_sum(p, &|d| d.kernels as f64)),
    );
    m.insert(
        "telemetry.copy_bytes_per_batch",
        all.iter()
            .map(|p| p.copies.bytes_per_batch())
            .fold(0.0, f64::max),
    );

    m.insert("egress.write_us_p50", q("egress.write_ns", 1e-3, 0.5));
    m.insert("egress.write_us_p99", q("egress.write_ns", 1e-3, 0.99));
    m.insert("egress.bytes", count("egress.bytes") as f64);

    m.insert(
        "bench.trace_overhead_pct",
        (untraced_rps - traced_rps) / untraced_rps * 100.0,
    );
    m.insert("bench.reconcile_violations", rec.violations as f64);
    m.insert("baseline.seq_rps", seq_rps);
    let shares: Vec<(String, f64)> = LAYERS
        .iter()
        .map(|l| {
            let own = rec.self_ns.get(l).copied().unwrap_or(0);
            (format!("share.{l}"), ratio(own, rec.wall_ns))
        })
        .collect();
    for (name, v) in &shares {
        m.insert(name, *v);
    }

    let phases: Vec<&PhaseOut> = plain.iter().chain(all.iter().copied()).collect();
    m.insert("ingress.poll_retries", warn_poll_retries(&phases) as f64);
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    m.insert("error_rate", ratio(failed, attempted));
    let reconciled = rec.violations == 0 && count("taskgraph.id_mismatch") == 0;
    if !reconciled {
        eprintln!("e2ebench: traced spans are incomplete, out of order or unnested");
    }
    Ok(result_line(&phases, &m, reconciled))
}

/// Report polls retried after the `filelog` segment-roll race; returns
/// their total.
fn warn_poll_retries(phases: &[&PhaseOut]) -> u64 {
    let n = phases.iter().map(|p| p.poll_retries).sum();
    if n > 0 {
        eprintln!("e2ebench: {n} source polls hit the filelog segment-roll race and were retried");
    }
    n
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_line(phases: &[&PhaseOut], metrics: &BTreeMap<&str, f64>, checks_pass: bool) -> String {
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let mut body = String::new();
    for (k, v) in metrics {
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{k}\": {v:?}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && checks_pass
    )
}
