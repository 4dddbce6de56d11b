//! The stream path every workload shares, run as one *phase*:
//!
//! ```text
//! generator ─append─▶ ingress::filelog ─TimedSource─▶ spawn_pump ─▶ fastflow channel
//!   ─▶ Items (feeder) ─▶ workload pipeline (App::run) ─▶ ordered sink ─▶ Egress (fsync per record)
//! ```
//!
//! A *drain* phase pre-fills the input log and consumes it as fast as it
//! can; a *paced* phase starts the consumer first and appends one record
//! at a time on an open-loop schedule. Every phase gets fresh log
//! directories, is set up from scratch (timed), and ends with the egress
//! log replayed from disk and checked against the sequential reference.

use std::collections::{HashMap, VecDeque};
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastflow::{PooledBuf, Receiver, WaitStrategy};
use gpusim::{DeviceStats, GpuSystem};
use ingress::filelog::read_all;
use ingress::{spawn_pump, FileLogSink, FileLogSource, IngressStats, PumpConfig, Sink, StreamKey};
use telemetry::copy::{CopyLedger, CopyStats};
use telemetry::{PoolStats, Recorder, SchedStats};

use crate::adapters::{addr_of, idx_of, TimedSource, SHARDS};
use crate::trace::{self, now_ns, Path, Probe};

/// Capacity of the pump → pipeline channel.
const CHANNEL_CAP: usize = 64;
/// Payload buffers acquired and returned at set-up so the pool is warm.
const POOL_WARM: usize = 64;
/// Lead time between starting the consumer and the first paced record.
const PACED_LEAD: Duration = Duration::from_millis(5);

/// One ingress record handed to a workload pipeline.
pub struct InRec {
    /// Phase-local record index.
    pub idx: u64,
    /// The record bytes, in a pinned pooled slab.
    pub payload: PooledBuf<u8>,
}

/// The pipeline's feeder: yields exactly the phase's records off the
/// pump channel, timing how long it blocks (`fastflow.recv_wait_ns`).
pub struct Items {
    rx: Receiver<InRec>,
    left: usize,
    ready: VecDeque<InRec>,
    scratch: Vec<InRec>,
    probe: Arc<Probe>,
}

impl Iterator for Items {
    type Item = InRec;

    fn next(&mut self) -> Option<InRec> {
        if self.left == 0 {
            return None;
        }
        if self.ready.is_empty() {
            let t0 = self.probe.now();
            if self.rx.recv_batch(&mut self.scratch, 16) == 0 {
                return None;
            }
            if self.probe.on() {
                self.probe.sample("fastflow.recv_wait_ns", now_ns() - t0);
            }
            self.ready.extend(self.scratch.drain(..));
        }
        let rec = self.ready.pop_front()?;
        self.left -= 1;
        self.probe.stamp(rec.idx, trace::RECV);
        Some(rec)
    }
}

/// The durable egress: one fsynced record per finished input record, on
/// the same shard, so egress sequence numbers mirror input ones.
pub struct Egress {
    log: FileLogSink,
    probe: Arc<Probe>,
    acked: Arc<AtomicU64>,
    pace: Option<(u64, f64)>,
    latencies_ns: Vec<u64>,
    last_ack: u64,
}

impl Egress {
    /// The ordered sink has record `idx`.
    pub fn received(&self, idx: u64) {
        self.probe.stamp(idx, trace::SINK);
    }

    /// Write record `idx`'s result and wait for its receipt to ack.
    pub fn write(&mut self, idx: u64, bytes: &[u8]) {
        let t0 = self.probe.now();
        let receipt = self.log.send(addr_of(idx).0, bytes).expect("egress send");
        assert!(receipt.is_acked(), "max_in_flight(1) acks every send");
        let t1 = now_ns();
        self.acked.fetch_add(1, Relaxed);
        self.last_ack = t1;
        if let Some((start, rate)) = self.pace {
            self.latencies_ns
                .push(t1.saturating_sub(due(start, rate, idx)));
        }
        if self.probe.on() {
            self.probe.stamp_at(idx, trace::SEND, t0);
            self.probe.stamp_at(idx, trace::ACK, t1);
            self.probe.sample("egress.write_ns", t1 - t0);
            self.probe.add("egress.bytes", bytes.len() as u64);
        }
    }
}

/// When paced record `idx` is due.
fn due(start: u64, rate: f64, idx: u64) -> u64 {
    start + (idx as f64 * 1e9 / rate) as u64
}

/// One workload pushed through the path.
pub trait App: Sync {
    /// What set-up builds: the fleet plus whatever the pipeline needs.
    type Rig;

    /// The record's blocking path (for reconciliation and the trace).
    fn path(&self) -> &'static Path;

    /// Records in one pass over the generated input.
    fn pass_len(&self) -> usize;

    /// Payload of record `k` of a pass.
    fn record(&self, k: usize) -> &[u8];

    /// Compute the sequential reference outputs (timed by the caller).
    fn build_reference(&mut self);

    /// Build a fresh fleet, placement and attached replicas.
    fn setup(&self) -> Self::Rig;

    /// The rig's device fleet.
    fn fleet(&self, rig: &Self::Rig) -> Arc<GpuSystem>;

    /// Run `items` through the workload pipeline, writing every result
    /// to `egress` in stream order. Returns the placement counters when
    /// the workload places batches.
    fn run(
        &self,
        rig: Self::Rig,
        items: Items,
        egress: &mut Egress,
        probe: &Arc<Probe>,
        ledger: &CopyLedger,
    ) -> Option<SchedStats>;

    /// Is `out` the reference result of record `k` of a pass?
    fn check_record(&self, k: usize, out: &[u8]) -> bool;

    /// Do the results of one whole pass pass the workload's own oracle
    /// (image digest, decompressed archive, merged top-k)?
    fn check_pass(&self, outs: &[&[u8]]) -> bool;
}

/// What one phase runs.
pub struct Phase {
    /// Records to push through.
    pub records: usize,
    /// `Some(rate)` for an open-loop paced phase (records/s); `None` to
    /// drain a pre-filled log.
    pub rate: Option<f64>,
    /// Record stamps and spans.
    pub traced: bool,
}

/// Everything one phase measured.
pub struct PhaseOut {
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// Consumer start (drain) or first due instant (paced) to last ack, s.
    pub elapsed_s: f64,
    /// Paced: due → ack per record, ns.
    pub latencies_ns: Vec<u64>,
    /// Records attempted.
    pub attempted: u64,
    /// Records missing, duplicated or not bit-exact, plus failed passes.
    pub failed: u64,
    /// Input payload bytes pushed.
    pub input_bytes: u64,
    /// Per-device modeled counters accumulated by this phase.
    pub devices: Vec<DeviceStats>,
    /// The phase's probe.
    pub probe: Arc<Probe>,
    /// Copy ledger of the pump and the drivers.
    pub copies: CopyStats,
    /// Ingress payload pool activity after warm-up.
    pub pool: PoolStats,
    /// Placement counters, when the workload places batches.
    pub sched: Option<SchedStats>,
    /// Paced: generator lateness (append start − due), ns.
    pub lag_ns: Vec<u64>,
    /// Paced: generator `send` + `flush`, ns.
    pub append_ns: Vec<u64>,
    /// Paced: records appended but not yet acked, sampled at each append.
    pub backlog: Vec<u64>,
    /// Source polls that hit the `filelog` segment-roll race and were
    /// retried (see [`TimedSource`]).
    pub poll_retries: u64,
}

impl PhaseOut {
    /// Drain throughput, records/s.
    pub fn rps(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s
    }

    /// Paced only: false when the backlog grew through the phase (see
    /// [`backlog_grew`]).
    pub fn paced_valid(&self) -> bool {
        !backlog_grew(&self.backlog)
    }
}

/// True when `backlog` (sampled through a phase) never fell, over its
/// last quarter, to the highest level it had over its first quarter. A
/// stable backlog that rises and drains (a stage holding records until a
/// batch fills) does not count as growth.
pub fn backlog_grew(backlog: &[u64]) -> bool {
    let q = backlog.len() / 4;
    match (
        backlog[..q].iter().max(),
        backlog[backlog.len() - q..].iter().min(),
    ) {
        (Some(first), Some(last)) => last > first,
        _ => false,
    }
}

/// The logs and pools one phase's set-up opens, plus the rig.
struct Setup<R> {
    rig: R,
    input: FileLogSink,
    egress: FileLogSink,
    source: FileLogSource,
    pool: fastflow::BufPool<u8>,
    secs: f64,
}

/// Set-up: fleet + replicas (the app's), input and egress logs, the
/// source, and a warmed pinned payload pool. Timed.
fn setup<A: App>(app: &A, dir: &FsPath) -> Setup<A::Rig> {
    let _ = std::fs::remove_dir_all(dir);
    let max_len = (0..app.pass_len())
        .map(|k| app.record(k).len())
        .max()
        .unwrap_or(1);
    let t = Instant::now();
    let rig = app.setup();
    let input = FileLogSink::open(dir, &key("records"), SHARDS).expect("open input log");
    let egress = FileLogSink::open(dir, &key("results"), SHARDS)
        .expect("open egress log")
        .with_max_in_flight(1);
    let pool = workload::pinned_pool::<u8>();
    drop(
        (0..POOL_WARM)
            .map(|_| pool.acquire(max_len))
            .collect::<Vec<_>>(),
    );
    let source =
        FileLogSource::open_replay(dir, &key("records"), pool.clone()).expect("open input source");
    Setup {
        rig,
        input,
        egress,
        source,
        pool,
        secs: t.elapsed().as_secs_f64(),
    }
}

fn key(name: &str) -> StreamKey {
    StreamKey::new(name).expect("valid stream key")
}

/// Time one set-up alone (then tear it down), s.
pub fn setup_only<A: App>(app: &A, dir: &FsPath) -> f64 {
    let secs = setup(app, dir).secs;
    let _ = std::fs::remove_dir_all(dir);
    secs
}

/// Run one phase in `dir` (created fresh, removed afterwards).
pub fn run_phase<A: App>(app: &A, dir: &FsPath, phase: &Phase) -> PhaseOut {
    let n = phase.records;
    let len = app.pass_len();
    let probe = Arc::new(Probe::new(phase.traced, n, SHARDS));
    let Setup {
        rig,
        mut input,
        egress,
        source,
        pool,
        secs: setup_s,
    } = setup(app, dir);
    let pool_base = pool.stats();
    let fleet = app.fleet(&rig);
    let input_bytes = (0..n).map(|i| app.record(i % len).len() as u64).sum();

    if phase.rate.is_none() {
        let t0 = probe.now();
        for i in 0..n as u64 {
            input
                .send(addr_of(i).0, app.record(i as usize % len))
                .expect("prefill append");
        }
        input.flush().expect("prefill fsync");
        let t1 = probe.now();
        for i in 0..n as u64 {
            probe.stamp_at(i, trace::DUE, t0);
            probe.stamp_at(i, trace::APPEND_START, t0);
            probe.stamp_at(i, trace::APPEND_END, t1);
        }
    }

    let (tx, rx) = fastflow::channel::<InRec>(CHANNEL_CAP, WaitStrategy::Block);
    let ledger = CopyLedger::new();
    let rec = Recorder::default();
    let acked = Arc::new(AtomicU64::new(0));
    let poll_retries = Arc::new(AtomicU64::new(0));
    let start = now_ns() + phase.rate.map_or(0, |_| PACED_LEAD.as_nanos() as u64);
    let pump = spawn_pump(
        Box::new(TimedSource::new(
            source,
            Arc::clone(&probe),
            Arc::clone(&poll_retries),
        )),
        tx,
        |m| InRec {
            idx: idx_of(m.shard.0, m.seq),
            payload: m.payload,
        },
        PumpConfig {
            ledger: Some(ledger.clone()),
            ..PumpConfig::default()
        },
        &rec,
        IngressStats::new(&rec, "records"),
    );
    let mut egress = Egress {
        log: egress,
        probe: Arc::clone(&probe),
        acked: Arc::clone(&acked),
        pace: phase.rate.map(|r| (start, r)),
        latencies_ns: Vec::with_capacity(n),
        last_ack: start,
    };
    let items = Items {
        rx,
        left: n,
        ready: VecDeque::new(),
        scratch: Vec::new(),
        probe: Arc::clone(&probe),
    };

    let (sched, gen) = std::thread::scope(|s| {
        let gen = phase.rate.map(|rate| {
            let (input, probe, acked) = (&mut input, &probe, &acked);
            s.spawn(move || generate(app, input, n, start, rate, probe, acked))
        });
        let sched = app.run(rig, items, &mut egress, &probe, &ledger);
        (sched, gen.map(|g| g.join().expect("generator")))
    });
    pump.join().expect("pump");
    let devices = (0..fleet.device_count())
        .map(|d| fleet.device(d).stats())
        .collect();
    let elapsed_s = egress.last_ack.saturating_sub(start) as f64 / 1e9;
    let latencies_ns = std::mem::take(&mut egress.latencies_ns);
    drop(egress);
    drop(input);

    let outs = read_all(dir, &key("results")).unwrap_or_default();
    let failed = verify(app, &outs, n);
    let _ = std::fs::remove_dir_all(dir);
    let pool_now = pool.stats();
    let (lag_ns, append_ns, backlog) = gen.unwrap_or_default();
    PhaseOut {
        setup_s,
        elapsed_s,
        latencies_ns,
        attempted: n as u64,
        failed,
        input_bytes,
        devices,
        probe,
        copies: ledger.stats(),
        pool: PoolStats {
            hits: pool_now.hits - pool_base.hits,
            misses: pool_now.misses - pool_base.misses,
            ..pool_now
        },
        sched,
        lag_ns,
        append_ns,
        backlog,
        poll_retries: poll_retries.load(Relaxed),
    }
}

/// The open-loop generator: append record `i` at `start + i / rate`,
/// fsync it, and sample lateness, append time and backlog.
fn generate<A: App>(
    app: &A,
    input: &mut FileLogSink,
    n: usize,
    start: u64,
    rate: f64,
    probe: &Probe,
    acked: &AtomicU64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut lag, mut append, mut backlog) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for i in 0..n as u64 {
        let due = due(start, rate, i);
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let a0 = now_ns();
        input
            .send(addr_of(i).0, app.record(i as usize % app.pass_len()))
            .expect("append");
        input.flush().expect("append fsync");
        let a1 = now_ns();
        lag.push(a0.saturating_sub(due));
        append.push(a1 - a0);
        backlog.push(i + 1 - acked.load(Relaxed));
        probe.stamp_at(i, trace::DUE, due);
        probe.stamp_at(i, trace::APPEND_START, a0);
        probe.stamp_at(i, trace::APPEND_END, a1);
    }
    (lag, append, backlog)
}

/// Replay check: every record present exactly once at its address and
/// bit-exact, and every whole pass passing the workload's oracle.
/// Returns the number of failures (bad records plus failed passes).
fn verify<A: App>(app: &A, outs: &HashMap<u32, Vec<Vec<u8>>>, n: usize) -> u64 {
    let len = app.pass_len();
    let mut got: Vec<Option<&[u8]>> = vec![None; n];
    let mut failed = 0u64;
    for (&shard, recs) in outs {
        for (seq, bytes) in recs.iter().enumerate() {
            match got.get_mut(idx_of(shard, seq as u64) as usize) {
                Some(slot) => *slot = Some(bytes),
                None => failed += 1,
            }
        }
    }
    for (idx, out) in got.iter().enumerate() {
        if !out.is_some_and(|b| app.check_record(idx % len, b)) {
            failed += 1;
        }
    }
    for pass in got.chunks_exact(len) {
        if let Some(outs) = pass.iter().copied().collect::<Option<Vec<&[u8]>>>() {
            if !app.check_pass(&outs) {
                failed += 1;
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::backlog_grew;

    #[test]
    fn only_a_backlog_that_keeps_rising_counts_as_growth() {
        let rising: Vec<u64> = (0..100).collect();
        let sawtooth: Vec<u64> = (0..100).map(|i| i % 32).collect();
        assert!(backlog_grew(&rising));
        assert!(!backlog_grew(&sawtooth));
        assert!(!backlog_grew(&[1; 100]));
        assert!(!backlog_grew(&[5, 9]));
    }
}
