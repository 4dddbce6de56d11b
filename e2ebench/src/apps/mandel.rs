//! `mandel` / `mandel-faults`: Fig. 1/4 row spans through
//! `MandelWork<CudaOffload>` on two simulated Titan XPs.
//!
//! A record is an 8-byte row span `[u32 y0][u32 rows]` (LE); its result
//! is the span header followed by the span's pixels. The seed jitters the
//! view window, so the image and each span's iteration count differ per
//! seed. Spans arrive in a fixed shuffled order that keeps each span's
//! parity: the ordered farm deals records round-robin over the two
//! replicas, so every device renders the same span set.
//!
//! `mandel-faults` arms a fixed-seed `gpusim` fault schedule on every
//! fresh fleet: each device refuses its first allocation (OOM halving)
//! and every kernel launch fails with probability 0.3 (retries, and a
//! CPU fallback whenever three attempts in a row fail). One worker per
//! device makes each device's operation order, and so the ladder walk,
//! the same on every run.

use std::sync::Arc;

use fastflow::Pipeline;
use gpusim::{CudaOffload, DeviceProps, FaultClass, FaultSpec, GpuSystem};
use mandel::core::FractalParams;
use mandel::hybrid::{BatchCompute, MandelWork};
use simtime::XorShift64;
use telemetry::copy::CopyLedger;
use telemetry::SchedStats;
use workload::{Done, Workload, WorkloadDriver};

use super::{shuffle, Params, SINGLE_WALK};
use crate::adapters::{Tagged, TimedNode, TimedWork};
use crate::path::{App, Egress, Items};
use crate::trace::{self, Path, Probe};

/// Devices (= farm replicas).
const DEVICES: usize = 2;
/// Seed of the (seed-independent) span order.
const SPAN_ORDER_SEED: u64 = 0x5a4e_0bde;

/// The fault schedule of `mandel-faults`; its seed is fixed so the
/// ladder walk does not depend on the workload seed.
pub const FAULTS: FaultSpec = FaultSpec {
    seed: 0x5EED_FA17,
    oom: FaultClass {
        every: 1,
        prob: 0.0,
        max: 1,
    },
    kernel: FaultClass {
        every: 0,
        prob: 0.3,
        max: u64::MAX,
    },
    slow: FaultClass::OFF,
    slow_factor: 1.0,
};

/// The record for row span `[y0, y0 + rows)`.
fn span_payload(y0: u32, rows: u32) -> [u8; 8] {
    let mut p = [0u8; 8];
    p[..4].copy_from_slice(&y0.to_le_bytes());
    p[4..].copy_from_slice(&rows.to_le_bytes());
    p
}

fn decode_span(p: &[u8]) -> (usize, usize) {
    let word = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().expect("4 bytes")) as usize;
    (word(0), word(4))
}

/// The mandel workload.
pub struct Mandel {
    params: FractalParams,
    rows: usize,
    faults: bool,
    records: Vec<[u8; 8]>,
    reference: Option<mandel::Image>,
}

/// Fleet, workload description and pre-attached replicas.
pub struct MandelRig {
    sys: Arc<GpuSystem>,
    work: MandelWork<CudaOffload>,
    gpus: Vec<BatchCompute<CudaOffload>>,
}

impl Mandel {
    /// Generate the input from `seed`: `dim`² pixels, `niter`
    /// iterations, spans of `rows` rows.
    pub fn new(seed: u64, p: &Params, faults: bool) -> Mandel {
        let (dim, niter, rows): (usize, u32, usize) = (p.get("dim"), p.get("niter"), p.get("rows"));
        let spans = dim / rows;
        assert!(
            dim % rows == 0 && spans % DEVICES == 0,
            "dim must split into an even number of spans"
        );
        let mut rng = XorShift64::new(seed ^ 0x6d61_6e64);
        let mut params = FractalParams::view(dim, niter);
        params.init_a += (rng.next_f64() - 0.5) * 0.02;
        params.init_b += (rng.next_f64() - 0.5) * 0.02;
        // A fixed span order: where the expensive spans (those crossing
        // the set) fall in the stream shapes the latency tail, so it must
        // not change with the seed.
        let mut order_rng = XorShift64::new(SPAN_ORDER_SEED);
        let mut order: Vec<usize> = (0..spans).collect();
        for parity in 0..DEVICES {
            let mut class: Vec<usize> = (parity..spans).step_by(DEVICES).collect();
            shuffle(&mut class, &mut order_rng);
            for (slot, span) in (parity..spans).step_by(DEVICES).zip(class) {
                order[slot] = span;
            }
        }
        let records = order
            .iter()
            .map(|&s| span_payload((s * rows) as u32, rows as u32))
            .collect();
        Mandel {
            params,
            rows,
            faults,
            records,
            reference: None,
        }
    }

    fn reference(&self) -> &mandel::Image {
        self.reference.as_ref().expect("reference built")
    }
}

impl App for Mandel {
    type Rig = MandelRig;

    fn path(&self) -> &'static Path {
        &SINGLE_WALK
    }

    fn pass_len(&self) -> usize {
        self.records.len()
    }

    fn record(&self, k: usize) -> &[u8] {
        &self.records[k]
    }

    fn build_reference(&mut self) {
        self.reference = Some(mandel::cpu::run_sequential(&self.params).0);
    }

    fn setup(&self) -> MandelRig {
        let sys = GpuSystem::new(DEVICES, DeviceProps::titan_xp());
        if self.faults {
            sys.inject_faults(&FAULTS);
        }
        let work = MandelWork::<CudaOffload>::new(&sys, &self.params, self.rows, DEVICES, 8);
        let gpus = (0..DEVICES).map(|r| work.attach(r)).collect();
        MandelRig { sys, work, gpus }
    }

    fn fleet(&self, rig: &MandelRig) -> Arc<GpuSystem> {
        Arc::clone(&rig.sys)
    }

    fn run(
        &self,
        rig: MandelRig,
        items: Items,
        egress: &mut Egress,
        probe: &Arc<Probe>,
        ledger: &CopyLedger,
    ) -> Option<SchedStats> {
        let (rows, dim) = (self.rows, self.params.dim);
        let recycle = rig.work.recycler().clone();
        let driver = WorkloadDriver::new(TimedWork::new(rig.work, Arc::clone(probe), trace::STAGE))
            .with_copy_ledger(ledger.clone());
        let mut gpus: Vec<Option<_>> = rig.gpus.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(8 + rows * dim);
        Pipeline::builder()
            .burst(1)
            .source(move |em| {
                for rec in items {
                    let (y0, _) = decode_span(&rec.payload);
                    if !em.send(Tagged {
                        idx: rec.idx,
                        inner: y0 / rows,
                    }) {
                        break;
                    }
                }
            })
            .farm_ordered(DEVICES, |r| {
                TimedNode::new(driver.clone(), gpus[r].take().expect("one replica per GPU"))
            })
            .for_each(|done: Done<TimedWork<MandelWork<CudaOffload>>>| {
                let idx = done.item.idx;
                egress.received(idx);
                let y0 = done.item.inner * rows;
                out.clear();
                out.extend_from_slice(&span_payload(y0 as u32, rows as u32));
                out.extend_from_slice(&done.batch[..rows * dim]);
                egress.write(idx, &out);
                recycle.give(done.batch);
            });
        None
    }

    fn check_record(&self, k: usize, out: &[u8]) -> bool {
        let (y0, rows) = decode_span(&self.records[k]);
        let dim = self.params.dim;
        out.len() == 8 + rows * dim
            && out[..8] == self.records[k]
            && out[8..] == self.reference().data[y0 * dim..(y0 + rows) * dim]
    }

    fn check_pass(&self, outs: &[&[u8]]) -> bool {
        let dim = self.params.dim;
        let mut img = mandel::Image::new(dim);
        for out in outs {
            if out.len() < 8 {
                return false;
            }
            let (y0, rows) = decode_span(out);
            if out.len() != 8 + rows * dim || y0 + rows > dim {
                return false;
            }
            img.data[y0 * dim..(y0 + rows) * dim].copy_from_slice(&out[8..]);
        }
        img.digest() == self.reference().digest()
    }
}
