//! Thin timing adapters over the public layer traits: an
//! [`ingress::Source`] wrapper, a [`workload::Workload`] wrapper, a
//! [`workload::Placement`] wrapper and a farm node around the
//! `WorkloadDriver` ladder. They stamp record boundaries and record child
//! spans into a [`Probe`]; with the probe off they only delegate.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use fastflow::{Emitter, FaultPolicy, Node};
use ingress::{IngressError, Message, SeqPos, SequenceNo, ShardId, Source, StreamKey};
use telemetry::Recorder;
use workload::{Decision, Done, Placement, Workload, WorkloadDriver, WorkloadFault};

use crate::trace::{now_ns, Probe};

/// Shards of every benchmark stream. Record `idx` of a phase lives at
/// shard `idx % SHARDS`, sequence `idx / SHARDS`, in both the input and
/// the egress log. One shard, because a source interleaves shards in no
/// fixed order, while dedup's duplicate cache (and the placement path's
/// causal ids) need records in stream order.
pub const SHARDS: u32 = 1;

/// The phase-local record index of `(shard, seq)`.
pub fn idx_of(shard: u32, seq: SequenceNo) -> u64 {
    seq * u64::from(SHARDS) + u64::from(shard)
}

/// The `(shard, seq)` address of record `idx`.
pub fn addr_of(idx: u64) -> (ShardId, SequenceNo) {
    (
        ShardId((idx % u64::from(SHARDS)) as u32),
        idx / u64::from(SHARDS),
    )
}

/// [`Source`] adapter timing `next_batch` and stamping every delivered
/// record with the poll that delivered it.
pub struct TimedSource<S: Source> {
    inner: S,
    probe: Arc<Probe>,
    retries: Arc<AtomicU64>,
}

impl<S: Source> TimedSource<S> {
    /// Wrap `inner`; polls retried after the known segment-roll race are
    /// counted in `retries`, traced or not.
    pub fn new(inner: S, probe: Arc<Probe>, retries: Arc<AtomicU64>) -> Self {
        TimedSource {
            inner,
            probe,
            retries,
        }
    }
}

impl<S: Source> Source for TimedSource<S> {
    fn stream_key(&self) -> &StreamKey {
        self.inner.stream_key()
    }

    fn assigned_shards(&self) -> Vec<ShardId> {
        self.inner.assigned_shards()
    }

    fn next_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        let from = out.len();
        let t0 = self.probe.now();
        let n = match self.inner.next_batch(out, max) {
            Ok(n) => n,
            // Known `filelog` race: a reader can list a freshly rolled
            // segment's `.log` before the writer has created its `.idx`
            // and fail with NotFound, which would kill the pump. Records
            // read before the failure have advanced the cursor and are
            // kept; the failed one is read by the next poll. Every
            // occurrence is counted (`ingress.poll_retries`).
            Err(IngressError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                self.retries.fetch_add(1, Relaxed);
                out.len() - from
            }
            Err(e) => return Err(e),
        };
        if n > 0 && self.probe.on() {
            let t1 = now_ns();
            self.probe.add("ingress.poll_ns", t1 - t0);
            self.probe.add("ingress.polled", n as u64);
            for m in &out[from..] {
                let idx = idx_of(m.shard.0, m.seq);
                self.probe.stamp_at(idx, crate::trace::POLL_START, t0);
                self.probe.stamp_at(idx, crate::trace::POLL_END, t1);
                self.probe.add("ingress.bytes", m.payload.len() as u64);
            }
        }
        Ok(n)
    }

    fn seek(&mut self, shard: ShardId, pos: SeqPos) -> Result<(), IngressError> {
        self.inner.seek(shard, pos)
    }

    fn commit(&mut self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        self.inner.commit(shard, next_seq)
    }
}

/// A workload item tagged with its phase-local record index.
pub struct Tagged<T> {
    /// Record index (see [`idx_of`]).
    pub idx: u64,
    /// The wrapped workload's item.
    pub inner: T,
}

thread_local! {
    /// `(record, device attempts)` of the ladder walk on this thread.
    /// Every driver path calls `make_batch` right before the walk, on the
    /// thread that walks it.
    static WALK: Cell<(u64, u32)> = const { Cell::new((u64::MAX, 0)) };
}

/// [`Workload`] adapter: items become [`Tagged`], `make_batch` opens the
/// record's `workload.process` span at stamp `start_slot`, every device
/// attempt and CPU fallback becomes a child span, and ladder outcomes are
/// counted (`workload.retries` = failed device attempts,
/// `workload.fallbacks` = host computations, `workload.first_try` = walks
/// whose first device attempt succeeded).
pub struct TimedWork<W: Workload> {
    inner: W,
    probe: Arc<Probe>,
    start_slot: usize,
}

impl<W: Workload> Clone for TimedWork<W> {
    fn clone(&self) -> Self {
        TimedWork {
            inner: self.inner.clone(),
            probe: Arc::clone(&self.probe),
            start_slot: self.start_slot,
        }
    }
}

impl<W: Workload> TimedWork<W> {
    /// Wrap `inner`; its process spans run from stamp `start_slot` to
    /// `start_slot + 1`.
    pub fn new(inner: W, probe: Arc<Probe>, start_slot: usize) -> Self {
        TimedWork {
            inner,
            probe,
            start_slot,
        }
    }

    /// Close record `idx`'s ladder walk (see [`finish_walk`]).
    pub fn finish(&self, idx: u64) {
        finish_walk(&self.probe, idx, self.start_slot);
    }

    fn attempt(
        &self,
        idx: u64,
        f: impl FnOnce() -> Result<(), WorkloadFault>,
    ) -> Result<(), WorkloadFault> {
        let n = WALK.with(|w| {
            let (rec, a) = w.get();
            w.set((rec, a + 1));
            a + 1
        });
        let t0 = self.probe.now();
        let r = f();
        if self.probe.on() {
            let t1 = now_ns();
            self.probe.sample("workload.device_ns", t1 - t0);
            self.probe
                .span("workload.device", "workload.process", idx, t0, t1);
            match r {
                Err(_) => self.probe.add("workload.retries", 1),
                Ok(()) if n == 1 => self.probe.add("workload.first_try", 1),
                Ok(()) => {}
            }
        }
        r
    }
}

/// Stamp the end of record `idx`'s ladder walk (slot `start_slot + 1`)
/// and sample its duration as `workload.process_ns`.
pub fn finish_walk(probe: &Probe, idx: u64, start_slot: usize) {
    if probe.on() {
        let t = now_ns();
        probe.stamp_at(idx, start_slot + 1, t);
        probe.sample(
            "workload.process_ns",
            t.saturating_sub(probe.get(idx, start_slot)),
        );
    }
}

impl<W: Workload> Workload for TimedWork<W> {
    type Item = Tagged<W::Item>;
    type Batch = W::Batch;
    type Gpu = W::Gpu;

    fn stage_label(&self) -> &'static str {
        self.inner.stage_label()
    }

    fn policy(&self) -> FaultPolicy {
        self.inner.policy()
    }

    fn describe(&self, item: &Self::Item) -> String {
        self.inner.describe(&item.inner)
    }

    fn attach(&self, replica: usize) -> W::Gpu {
        self.inner.attach(replica)
    }

    fn make_batch(&self, item: &Self::Item) -> W::Batch {
        WALK.with(|w| w.set((item.idx, 0)));
        self.probe.stamp(item.idx, self.start_slot);
        self.probe.add("workload.walks", 1);
        self.inner.make_batch(&item.inner)
    }

    fn try_gpu_batch(
        &self,
        gpu: &mut W::Gpu,
        item: &Self::Item,
        out: &mut W::Batch,
    ) -> Result<(), WorkloadFault> {
        self.attempt(item.idx, || self.inner.try_gpu_batch(gpu, &item.inner, out))
    }

    fn split_units(&self, item: &Self::Item) -> usize {
        self.inner.split_units(&item.inner)
    }

    fn try_gpu_split(
        &self,
        gpu: &mut W::Gpu,
        item: &Self::Item,
        lo: usize,
        hi: usize,
        out: &mut W::Batch,
    ) -> Result<(), WorkloadFault> {
        self.attempt(item.idx, || {
            self.inner.try_gpu_split(gpu, &item.inner, lo, hi, out)
        })
    }

    fn cpu_batch(&self, item: &Self::Item, out: &mut W::Batch) {
        let t0 = self.probe.now();
        self.inner.cpu_batch(&item.inner, out);
        if self.probe.on() {
            let t1 = now_ns();
            self.probe.add("workload.fallbacks", 1);
            self.probe.add("workload.cpu_ns", t1 - t0);
            self.probe
                .span("workload.cpu", "workload.process", item.idx, t0, t1);
        }
    }

    fn register_telemetry(&self, rec: &Recorder) {
        self.inner.register_telemetry(rec);
    }
}

/// Farm node running the driver's full ladder on a replica's
/// pre-attached GPU state and closing the record's process span.
pub struct TimedNode<W: Workload> {
    driver: WorkloadDriver<TimedWork<W>>,
    gpu: Option<W::Gpu>,
}

impl<W: Workload> TimedNode<W> {
    /// A node for `driver` computing on `gpu`.
    pub fn new(driver: WorkloadDriver<TimedWork<W>>, gpu: W::Gpu) -> Self {
        TimedNode {
            driver,
            gpu: Some(gpu),
        }
    }
}

impl<W: Workload> Node for TimedNode<W> {
    type In = Tagged<W::Item>;
    type Out = Done<TimedWork<W>>;

    fn svc(&mut self, item: Self::In, out: &mut Emitter<'_, Self::Out>) {
        let gpu = self.gpu.as_mut().expect("attached at setup");
        let work = self.driver.workload();
        let mut batch = work.make_batch(&item);
        self.driver.process_into(gpu, &item, &mut batch);
        work.finish(item.idx);
        out.send(Done { item, batch });
    }
}

/// [`Placement`] adapter timing every decision as a `taskgraph.place`
/// child span of the record's dispatch, and closing the record's process
/// span when the device reports the batch done. Causal batch ids are
/// drawn in stream order starting at 1 by a fresh driver, so batch `b`
/// is record `b - 1`; `observe` checks that against the record the
/// worker thread just walked (`taskgraph.id_mismatch`).
pub struct TimedPlacement {
    inner: Arc<dyn Placement>,
    probe: Arc<Probe>,
    start_slot: usize,
}

impl TimedPlacement {
    /// Wrap `inner`; process spans close at `start_slot + 1`.
    pub fn new(inner: Arc<dyn Placement>, probe: Arc<Probe>, start_slot: usize) -> Arc<Self> {
        Arc::new(TimedPlacement {
            inner,
            probe,
            start_slot,
        })
    }
}

impl Placement for TimedPlacement {
    fn place(&self, batch_id: u64, key: u64, units: u64) -> Decision {
        let t0 = self.probe.now();
        let d = self.inner.place(batch_id, key, units);
        if self.probe.on() {
            let t1 = now_ns();
            self.probe.sample("taskgraph.place_ns", t1 - t0);
            self.probe
                .span("taskgraph.place", "fastflow.dispatch", batch_id - 1, t0, t1);
        }
        d
    }

    fn observe(&self, batch_id: u64, device: usize) {
        let idx = batch_id - 1;
        if self.probe.on() && WALK.with(|w| w.get().0) != idx {
            self.probe.add("taskgraph.id_mismatch", 1);
        }
        finish_walk(&self.probe, idx, self.start_slot);
        let t0 = self.probe.now();
        self.inner.observe(batch_id, device);
        if self.probe.on() {
            self.probe
                .span("taskgraph.observe", "fastflow.reorder", idx, t0, now_ns());
        }
    }
}
