//! The pipeline skeleton: a typed, thread-per-stage stream graph builder.
//!
//! `Pipeline::builder().source(..).node(..).farm(..).for_each(..)` spawns one
//! thread per sequential stage, SPSC-connected, exactly like a FastFlow
//! `ff_pipeline`; `farm(..)` nests a [farm](crate::farm) as a stage. Every
//! stage sees EOS when its upstream channel closes and propagates it by
//! dropping its own sender.

use std::cell::Cell;
use std::thread::{self, JoinHandle};

use telemetry::{Recorder, StageHandle};

use crate::channel::{channel, Receiver, Sender};
use crate::farm::{spawn_farm_routed, spawn_farm_traced, FarmConfig, Router, SchedPolicy};
use crate::node::{map, Emitter, Node};
use crate::stamp::Stamped;
use crate::wait::WaitStrategy;

/// Batching output sink shared by every stage loop: outputs accumulate in a
/// local buffer and are delivered with [`Sender::send_batch`] — one index
/// publication and one wakeup per run instead of one per item.
///
/// The buffer flushes itself when it reaches `burst` items, and every node
/// stage loop flushes explicitly before blocking for more input, so no item
/// sits buffered while its stage sleeps. Source stages use a burst of 1:
/// their closure is opaque and may block anywhere with nothing to flush
/// before it, so they publish each item as it is emitted.
pub(crate) struct BatchSink<T: Send> {
    tx: Sender<Stamped<T>>,
    buf: Vec<Stamped<T>>,
    burst: usize,
    stage: StageHandle,
    alive: bool,
}

impl<T: Send> BatchSink<T> {
    pub(crate) fn new(tx: Sender<Stamped<T>>, stage: StageHandle, burst: usize) -> Self {
        BatchSink {
            tx,
            buf: Vec::with_capacity(burst),
            burst,
            stage,
            alive: true,
        }
    }

    /// Buffer one output carrying `emit_ns`; auto-flushes at the burst
    /// size. Returns false once downstream is gone.
    #[inline]
    pub(crate) fn push(&mut self, item: T, emit_ns: u64) -> bool {
        if !self.alive {
            return false;
        }
        self.buf.push(Stamped::at(item, emit_ns));
        if self.buf.len() >= self.burst {
            self.flush();
        }
        self.alive
    }

    /// Buffer one *fresh* output stamped now (source stages).
    #[inline]
    pub(crate) fn push_fresh(&mut self, item: T) -> bool {
        let ns = self.stage.stamp_ns();
        self.push(item, ns)
    }

    /// Deliver everything buffered. Each item still counts individually in
    /// `items_out`; a run that cannot be placed without waiting counts one
    /// push stall. Returns false once downstream is gone.
    pub(crate) fn flush(&mut self) -> bool {
        if self.alive && !send_batch_accounted(&self.tx, &mut self.buf, &self.stage, |_| 1) {
            self.alive = false;
        }
        self.alive
    }
}

/// Deliver `buf` downstream, recording `items_out` only as messages are
/// actually handed off — never at service time, so the stall watchdog (which
/// blames a stage by comparing its progress against its upstream's) can
/// neither see phantom undelivered items during a long `svc` call nor lose
/// sight of progress while a full ring blocks the rest of the run: delivery
/// happens in sub-runs with incremental accounting. `count` maps one queued
/// message to the number of stream items it carries (1 for plain items;
/// farm worker messages carry a whole `svc` output set). A run that cannot
/// be placed without waiting counts one push stall. Returns false once the
/// consumer is gone (the undeliverable remainder is discarded).
pub(crate) fn send_batch_accounted<T: Send>(
    tx: &Sender<T>,
    buf: &mut Vec<T>,
    stage: &StageHandle,
    count: impl Fn(&T) -> u64,
) -> bool {
    if buf.is_empty() {
        return true;
    }
    if !stage.enabled() {
        return tx.send_batch(buf.drain(..)).is_ok();
    }
    if tx.free_slots() < buf.len() {
        stage.push_stall();
    }
    // Items the ring has taken since the last `items_out`: the iterator
    // only yields a message when it is about to be pushed.
    let taken = Cell::new(0u64);
    let mut iter = buf.drain(..).inspect(|m| taken.set(taken.get() + count(m)));
    loop {
        if tx.try_send_batch(&mut iter).is_err() {
            return false;
        }
        stage.items_out(taken.replace(0));
        match iter.next() {
            None => return true,
            // The ring is full: wait for room for one, then retry the run.
            Some(msg) => {
                if tx.send(msg).is_err() {
                    return false; // the remainder is discarded with `iter`
                }
                stage.items_out(taken.replace(0));
            }
        }
    }
}

/// Burst-drain up to `max` items into `out`, counting a pop wait when the
/// queue is empty on arrival. Returns the number appended; 0 = EOS. A
/// stage that finds `k` items queued takes all of them with one
/// acquire/release pair instead of `k`.
pub(crate) fn traced_recv_batch<T: Send>(
    rx: &Receiver<T>,
    handle: &StageHandle,
    out: &mut Vec<T>,
    max: usize,
) -> usize {
    if !handle.enabled() {
        return rx.recv_batch(out, max);
    }
    let n = rx.try_recv_batch(out, max);
    if n > 0 {
        return n;
    }
    if rx.is_eos() {
        return 0;
    }
    handle.pop_wait();
    rx.recv_batch(out, max)
}

/// Queue configuration shared by all stages of one pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Capacity of every inter-stage queue.
    pub capacity: usize,
    /// Wait strategy of every inter-stage queue.
    pub wait: WaitStrategy,
    /// Maximum run length of the batched queue operations: a stage drains
    /// up to this many queued items per acquire/release pair and buffers at
    /// most this many outputs before publishing them in one go. Node stages
    /// also publish what they hold before blocking for more input, and
    /// source stages publish every item as emitted, so a stage never sleeps
    /// on an item its consumer could use. `1`
    /// reproduces the pre-batching item-at-a-time data path.
    pub burst: usize,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            capacity: 64,
            wait: WaitStrategy::default(),
            burst: 32,
        }
    }
}

/// Entry point for building pipelines.
pub struct Pipeline;

impl Pipeline {
    /// Start building with default configuration.
    pub fn builder() -> PipelineStart {
        PipelineStart {
            cfg: PipeConfig::default(),
            rec: Recorder::default(),
        }
    }
}

/// Builder state before the source is attached.
pub struct PipelineStart {
    cfg: PipeConfig,
    rec: Recorder,
}

impl PipelineStart {
    /// Set the inter-stage queue capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be >= 1");
        self.cfg.capacity = capacity;
        self
    }

    /// Set the wait strategy for all queues.
    pub fn wait(mut self, wait: WaitStrategy) -> Self {
        self.cfg.wait = wait;
        self
    }

    /// Set the maximum batched-transfer run length (see
    /// [`PipeConfig::burst`]). `1` disables batching.
    pub fn burst(mut self, burst: usize) -> Self {
        assert!(burst > 0, "burst must be >= 1");
        self.cfg.burst = burst;
        self
    }

    /// Attach a telemetry recorder: every stage and farm replica of this
    /// pipeline registers a [`telemetry::StageMetrics`] under it. A
    /// disabled recorder (the default) makes every probe a no-op branch.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Attach a source closure run on its own thread; it pushes items via
    /// the [`Emitter`] and the stream ends when it returns.
    pub fn source<T, F>(self, f: F) -> PipelineBuilder<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Emitter<'_, T>) + Send + 'static,
    {
        let (tx, rx) = channel::<Stamped<T>>(self.cfg.capacity, self.cfg.wait);
        let stage = self.rec.stage("source", 0);
        let handle = thread::Builder::new()
            .name("ff-source".into())
            .spawn(move || {
                // Burst 1: `f` may block between items, and a buffered item
                // would wait out that block with no one to flush it.
                let mut bsink = BatchSink::new(tx, stage, 1);
                {
                    let mut push = |item: T| bsink.push_fresh(item);
                    let mut em = Emitter::new(&mut push);
                    f(&mut em);
                }
                bsink.flush();
            })
            .expect("spawn source");
        PipelineBuilder {
            cfg: self.cfg,
            rec: self.rec,
            stage_no: 0,
            rx,
            handles: vec![handle],
        }
    }

    /// Attach an iterator as the source.
    pub fn from_iter<I>(self, iter: I) -> PipelineBuilder<I::Item>
    where
        I: IntoIterator + Send + 'static,
        I::Item: Send + 'static,
    {
        self.source(move |em| {
            for item in iter {
                if !em.send(item) {
                    break;
                }
            }
        })
    }
}

/// Builder state carrying the output end of the graph built so far.
///
/// Internally every inter-stage channel transports [`Stamped<T>`] so the
/// emit instant travels with each item; the public stage closures only
/// ever see the bare `T`.
pub struct PipelineBuilder<T: Send + 'static> {
    cfg: PipeConfig,
    rec: Recorder,
    /// Stages appended so far (for auto-generated stage names).
    stage_no: usize,
    rx: Receiver<Stamped<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> PipelineBuilder<T> {
    fn next_stage_name(&mut self) -> String {
        self.stage_no += 1;
        format!("stage{}", self.stage_no)
    }

    /// Append a sequential stage running `node` on its own thread.
    pub fn node<N>(mut self, mut node: N) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
    {
        let (tx, out_rx) = channel::<Stamped<N::Out>>(self.cfg.capacity, self.cfg.wait);
        let name = self.next_stage_name();
        let stage = self.rec.stage(&name, 0);
        let rx = self.rx;
        let burst = self.cfg.burst;
        let handle = thread::Builder::new()
            .name("ff-stage".into())
            .spawn(move || {
                node.on_init();
                let mut bsink = BatchSink::new(tx, stage.clone(), burst);
                let mut in_buf: Vec<Stamped<T>> = Vec::with_capacity(burst);
                loop {
                    let n = traced_recv_batch(&rx, &stage, &mut in_buf, burst);
                    if n == 0 {
                        break;
                    }
                    // Outputs inherit the emit stamp of the input being
                    // serviced; `on_eos` flushes are untimed.
                    for Stamped { item, emit_ns } in in_buf.drain(..) {
                        stage.item_in(rx.len());
                        let mut push = |out: N::Out| bsink.push(out, emit_ns);
                        let mut em = Emitter::new(&mut push);
                        let span = stage.begin();
                        node.svc(item, &mut em);
                        stage.end(span);
                        if !em.is_open() {
                            return;
                        }
                    }
                    // Flush before the recv above can block again.
                    if !bsink.flush() {
                        return;
                    }
                }
                {
                    let mut push = |out: N::Out| bsink.push(out, 0);
                    let mut em = Emitter::new(&mut push);
                    node.on_eos(&mut em);
                }
                bsink.flush();
            })
            .expect("spawn stage");
        self.handles.push(handle);
        PipelineBuilder {
            cfg: self.cfg,
            rec: self.rec,
            stage_no: self.stage_no,
            rx: out_rx,
            handles: self.handles,
        }
    }

    /// Append a sequential 1:1 mapping stage.
    pub fn map<U, F>(self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.node(map(f))
    }

    /// Append an unordered farm stage with `replicas` copies of the node
    /// built by `factory` (round-robin scheduling).
    pub fn farm<N, F>(self, replicas: usize, factory: F) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        self.farm_with(replicas, factory, SchedPolicy::RoundRobin, false)
    }

    /// Append an order-preserving farm stage (FastFlow's `ff_ofarm`).
    pub fn farm_ordered<N, F>(self, replicas: usize, factory: F) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        self.farm_with(replicas, factory, SchedPolicy::RoundRobin, true)
    }

    /// Append an order-preserving farm whose worker selection is driven
    /// by `router` instead of a fixed policy (see
    /// [`spawn_farm_routed`]). The router runs serially on the emitter
    /// thread in stream order — the hook a placement scheduler uses to
    /// pin each item to a device-owning replica deterministically.
    pub fn farm_routed<N, F>(
        mut self,
        replicas: usize,
        factory: F,
        router: Router<T>,
    ) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        let cfg = FarmConfig {
            capacity: self.cfg.capacity,
            wait: self.cfg.wait,
            policy: SchedPolicy::RoundRobin,
            ordered: true,
            // burst 1: deliver each item before routing the next. A
            // routing policy may block a decision on feedback from items
            // it already routed (a placement scheduler's lookahead
            // window); with a larger burst those items could still sit
            // unsent in emitter scratch — a deadlock.
            burst: 1,
        };
        let name = self.next_stage_name();
        let (out_rx, mut farm_handles) =
            spawn_farm_routed::<N, F>(self.rx, replicas, factory, router, cfg, &self.rec, &name);
        self.handles.append(&mut farm_handles);
        PipelineBuilder {
            cfg: self.cfg,
            rec: self.rec,
            stage_no: self.stage_no,
            rx: out_rx,
            handles: self.handles,
        }
    }

    /// Append a farm stage with full control over scheduling and ordering.
    pub fn farm_with<N, F>(
        mut self,
        replicas: usize,
        factory: F,
        policy: SchedPolicy,
        ordered: bool,
    ) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        let cfg = FarmConfig {
            capacity: self.cfg.capacity,
            wait: self.cfg.wait,
            policy,
            ordered,
            burst: self.cfg.burst,
        };
        let name = self.next_stage_name();
        let (out_rx, mut farm_handles) =
            spawn_farm_traced::<N, F>(self.rx, replicas, factory, cfg, &self.rec, &name);
        self.handles.append(&mut farm_handles);
        PipelineBuilder {
            cfg: self.cfg,
            rec: self.rec,
            stage_no: self.stage_no,
            rx: out_rx,
            handles: self.handles,
        }
    }

    /// Append a feedback (wrap-around) farm stage: each item circulates
    /// through the workers until one returns
    /// [`Loop::Emit`](crate::feedback::Loop). Results are unordered.
    pub fn feedback_farm<O, W, G>(mut self, replicas: usize, factory: G) -> PipelineBuilder<O>
    where
        O: Send + 'static,
        W: FnMut(T) -> crate::feedback::Loop<T, O> + Send + 'static,
        G: FnMut(usize) -> W,
    {
        let name = self.next_stage_name();
        let (out_rx, mut fb_handles) = crate::feedback::spawn_feedback_farm_traced(
            self.rx,
            replicas,
            factory,
            self.cfg.capacity,
            self.cfg.wait,
            self.cfg.burst,
            &self.rec,
            &name,
        );
        self.handles.append(&mut fb_handles);
        PipelineBuilder {
            cfg: self.cfg,
            rec: self.rec,
            stage_no: self.stage_no,
            rx: out_rx,
            handles: self.handles,
        }
    }

    /// Terminate with a sink run on the *calling* thread; returns when the
    /// stream ends and all stage threads have been joined.
    ///
    /// # Panics
    /// Re-raises any panic that occurred on a stage thread.
    pub fn for_each<F>(self, mut f: F)
    where
        F: FnMut(T),
    {
        let stage = self.rec.stage("sink", 0);
        let mut buf: Vec<Stamped<T>> = Vec::with_capacity(self.cfg.burst);
        while traced_recv_batch(&self.rx, &stage, &mut buf, self.cfg.burst) > 0 {
            for Stamped { item, emit_ns } in buf.drain(..) {
                stage.item_in(self.rx.len());
                let span = stage.begin();
                f(item);
                stage.end(span);
                self.rec.record_e2e(emit_ns);
            }
        }
        join_all(self.handles);
    }

    /// Terminate by collecting all items into a `Vec` (joins all threads).
    pub fn collect(self) -> Vec<T> {
        let stage = self.rec.stage("sink", 0);
        let mut out = Vec::new();
        let mut buf: Vec<Stamped<T>> = Vec::with_capacity(self.cfg.burst);
        while traced_recv_batch(&self.rx, &stage, &mut buf, self.cfg.burst) > 0 {
            for Stamped { item, emit_ns } in buf.drain(..) {
                stage.item_in(self.rx.len());
                self.rec.record_e2e(emit_ns);
                out.push(item);
            }
        }
        join_all(self.handles);
        out
    }

    /// Hand the output stream to the caller; the returned guard joins the
    /// stage threads when dropped (after the receiver is drained). Items
    /// arrive wrapped in [`Stamped`] — the caller owns the sink, so it
    /// also owns end-to-end accounting (`Recorder::record_e2e`).
    pub fn into_receiver(self) -> (Receiver<Stamped<T>>, PipelineThreads) {
        (self.rx, PipelineThreads(self.handles))
    }
}

/// Guard owning the stage threads of a running pipeline.
pub struct PipelineThreads(Vec<JoinHandle<()>>);

impl PipelineThreads {
    /// Join all stage threads, propagating panics.
    pub fn join(mut self) {
        join_all(std::mem::take(&mut self.0));
    }

    /// Join all stage threads *without* re-raising panics: each panicking
    /// thread contributes one entry to the returned
    /// [`RunReport`](crate::error::RunReport) instead. Joining is
    /// unconditional — even after a mid-pipeline failure every thread is
    /// waited for, so a clean report really means the graph drained.
    pub fn join_report(mut self) -> crate::error::RunReport {
        let mut report = crate::error::RunReport::default();
        for h in std::mem::take(&mut self.0) {
            if let Err(payload) = h.join() {
                report.absorb(payload);
            }
        }
        report
    }
}

impl Drop for PipelineThreads {
    fn drop(&mut self) {
        for h in std::mem::take(&mut self.0) {
            // Don't double-panic while unwinding.
            let res = h.join();
            if !thread::panicking() {
                if let Err(e) = res {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}

fn join_all(handles: Vec<JoinHandle<()>>) {
    for h in handles {
        if let Err(e) = h.join() {
            std::panic::resume_unwind(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node;

    #[test]
    fn three_stage_pipeline_preserves_order() {
        let out = Pipeline::builder()
            .from_iter(0..100u64)
            .map(|x| x + 1)
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..100).map(|x| (x + 1) * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn source_closure_and_for_each() {
        let mut sum = 0u64;
        Pipeline::builder()
            .source(|em| {
                for i in 1..=10u64 {
                    em.send(i);
                }
            })
            .map(|x| x * x)
            .for_each(|x| sum += x);
        assert_eq!(sum, 385);
    }

    #[test]
    fn farm_stage_unordered_is_complete() {
        let mut out = Pipeline::builder()
            .from_iter(0..200u32)
            .farm(4, |_| node::map(|x: u32| x ^ 1))
            .collect();
        out.sort_unstable();
        let mut expected: Vec<u32> = (0..200).map(|x| x ^ 1).collect();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn farm_stage_ordered_matches_sequential() {
        let out = Pipeline::builder()
            .capacity(8)
            .from_iter(0..200u32)
            .farm_ordered(5, |_| node::map(|x: u32| x * 3))
            .collect();
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<u32>>());
    }

    #[test]
    fn pipeline_with_farm_then_stage() {
        let out = Pipeline::builder()
            .from_iter(1..=50u64)
            .farm_ordered(3, |_| node::map(|x: u64| x * 2))
            .map(|x| x + 1)
            .collect();
        assert_eq!(out, (1..=50).map(|x| x * 2 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn stateful_filter_stage() {
        // Deduplicate consecutive equal items — a stateful sequential stage.
        struct Dedup {
            last: Option<u32>,
        }
        impl Node for Dedup {
            type In = u32;
            type Out = u32;
            fn svc(&mut self, input: u32, out: &mut Emitter<'_, u32>) {
                if self.last != Some(input) {
                    self.last = Some(input);
                    out.send(input);
                }
            }
        }
        let out = Pipeline::builder()
            .from_iter(vec![1u32, 1, 2, 2, 2, 3, 1])
            .node(Dedup { last: None })
            .collect();
        assert_eq!(out, vec![1, 2, 3, 1]);
    }

    #[test]
    fn early_sink_drop_stops_the_stream() {
        // Receiver dropped after 5 items; upstream must terminate cleanly.
        let (rx, threads) = Pipeline::builder()
            .capacity(2)
            .from_iter(0..1_000_000u64)
            .map(|x| x)
            .into_receiver();
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(rx.recv().unwrap().item);
        }
        drop(rx);
        threads.join(); // must not hang
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn spin_and_yield_strategies_complete() {
        for ws in [WaitStrategy::Spin, WaitStrategy::Yield] {
            let out = Pipeline::builder()
                .wait(ws)
                .from_iter(0..100u64)
                .farm_ordered(2, |_| node::map(|x: u64| x + 7))
                .collect();
            assert_eq!(out, (0..100).map(|x| x + 7).collect::<Vec<u64>>());
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn stage_panic_propagates() {
        Pipeline::builder()
            .from_iter(0..10u32)
            .map(|x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
            .for_each(|_| {});
    }
}
