//! `dedup`: Fig. 5 segments through the Fig. 3 stages on two simulated
//! Titan XPs.
//!
//! A record is one fixed-size segment of seeded `datasets::parsec_like`
//! bytes. The pipeline forms its batch (`make_batches`, rabin chunking),
//! hashes it through the `HashWork` driver, classifies its blocks in the
//! serial `DedupCache` stage, compresses unique blocks through the
//! `CompressWork` driver (host path when stage 2 lost residency), and
//! egresses the segment's archive entries as a serialized
//! [`Archive`]. The cache restarts at the first segment of every pass, so
//! each pass must reproduce `run_sequential` exactly, and its entries must
//! decompress to the input.

use std::sync::Arc;

use dedup::backend::{CompressWork, DedupGpu, HashWork};
use dedup::dedupe::BlockClass;
use dedup::{
    make_batches, run_sequential, Archive, BackendCtx, DedupCache, DedupConfig, LzssConfig,
    RabinParams,
};
use fastflow::{Emitter, Node, Pipeline};
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use telemetry::copy::CopyLedger;
use telemetry::SchedStats;
use workload::{Done, Workload, WorkloadDriver};

use super::Params;
use crate::adapters::{Tagged, TimedNode, TimedWork};
use crate::path::{App, Egress, Items};
use crate::trace::{self, now_ns, Path, Probe};

/// Devices; each GPU stage runs one replica per device.
const DEVICES: usize = 2;

type Hash = TimedWork<HashWork<CudaOffload>>;
type Compress = TimedWork<CompressWork<CudaOffload>>;
type Classified = dedup::backend::ClassifiedBatch<dedup::backend::OffloadResident<CudaOffload>>;

const CHUNK_END: usize = trace::STAGE + 1;
const HASH: usize = trace::STAGE + 2;
const DUP: usize = trace::STAGE + 4;
const COMPRESS: usize = trace::STAGE + 6;

/// The dedup blocking path: batch formation on the feeder, then the two
/// driver walks around the serial duplicate check.
pub static PATH: Path = Path {
    slots: &[
        trace::DUE,
        trace::APPEND_START,
        trace::APPEND_END,
        trace::POLL_START,
        trace::POLL_END,
        trace::RECV,
        CHUNK_END,
        HASH,
        HASH + 1,
        DUP,
        DUP + 1,
        COMPRESS,
        COMPRESS + 1,
        trace::SINK,
        trace::SEND,
        trace::ACK,
    ],
    names: &[
        "loadgen.lag",
        "ingress.append",
        "ingress.log_wait",
        "ingress.poll",
        "fastflow.channel",
        "dedup.chunk",
        "fastflow.dispatch",
        "workload.process",
        "fastflow.hop",
        "dedup.dupcheck",
        "fastflow.hop",
        "workload.process",
        "fastflow.reorder",
        "egress.encode",
        "egress.write",
    ],
};

/// The dedup workload.
pub struct Dedup {
    cfg: DedupConfig,
    data: Vec<u8>,
    reference: Archive,
    /// Serialized reference entries per segment.
    expected: Vec<Vec<u8>>,
}

/// Fleet, backend context and pre-attached replicas of both stages.
pub struct DedupRig {
    sys: Arc<GpuSystem>,
    ctx: BackendCtx,
    hash_gpus: Vec<DedupGpu<CudaOffload>>,
    compress_gpus: Vec<DedupGpu<CudaOffload>>,
}

impl Dedup {
    /// Generate `segments` segments of `segment_kib` KiB from `seed`,
    /// chunked and coded with fig5's rabin/LZSS configuration.
    pub fn new(seed: u64, p: &Params) -> Dedup {
        let seg = p.get::<usize>("segment_kib") * 1024;
        let segments: usize = p.get("segments");
        let cfg = DedupConfig {
            batch_size: seg,
            rabin: RabinParams {
                window: 32,
                mask: (1 << 11) - 1,
                magic: 0x78,
                min_chunk: 512,
                max_chunk: 8 * 1024,
            },
            lzss: LzssConfig {
                window: p.get("lzss_window"),
                min_coded: 3,
            },
        };
        let data =
            dedup::datasets::parsec_like(seg * segments, seed).data[..seg * segments].to_vec();
        Dedup {
            cfg,
            data,
            reference: Archive::new(LzssConfig::default()),
            expected: Vec::new(),
        }
    }

    fn segment(&self, k: usize) -> &[u8] {
        let seg = self.cfg.batch_size;
        &self.data[k * seg..(k + 1) * seg]
    }

    fn entries_of(&self, outs: &[&[u8]]) -> Option<Archive> {
        let mut all = Archive::new(self.cfg.lzss);
        for out in outs {
            all.entries.extend(Archive::from_bytes(out).ok()?.entries);
        }
        Some(all)
    }
}

impl App for Dedup {
    type Rig = DedupRig;

    fn path(&self) -> &'static Path {
        &PATH
    }

    fn pass_len(&self) -> usize {
        self.data.len() / self.cfg.batch_size
    }

    fn record(&self, k: usize) -> &[u8] {
        self.segment(k)
    }

    fn build_reference(&mut self) {
        self.reference = run_sequential(&self.data, &self.cfg);
        let mut at = 0;
        self.expected = make_batches(&self.data, self.cfg.batch_size, &self.cfg.rabin)
            .iter()
            .map(|b| {
                let n = b.block_count();
                let part = Archive {
                    lzss: self.cfg.lzss,
                    entries: self.reference.entries[at..at + n].to_vec(),
                };
                at += n;
                part.to_bytes()
            })
            .collect();
    }

    fn setup(&self) -> DedupRig {
        let sys = GpuSystem::new(DEVICES, DeviceProps::titan_xp());
        let ctx = BackendCtx::gpu(Arc::clone(&sys), DEVICES, true, self.cfg.lzss);
        let hash = HashWork::<CudaOffload>::new(&ctx);
        let compress = CompressWork::<CudaOffload>::new(&ctx);
        DedupRig {
            hash_gpus: (0..DEVICES).map(|r| hash.attach(r)).collect(),
            compress_gpus: (0..DEVICES).map(|r| compress.attach(r)).collect(),
            sys,
            ctx,
        }
    }

    fn fleet(&self, rig: &DedupRig) -> Arc<GpuSystem> {
        Arc::clone(&rig.sys)
    }

    fn run(
        &self,
        rig: DedupRig,
        items: Items,
        egress: &mut Egress,
        probe: &Arc<Probe>,
        ledger: &CopyLedger,
    ) -> Option<SchedStats> {
        let hash: WorkloadDriver<Hash> = WorkloadDriver::new(TimedWork::new(
            HashWork::new(&rig.ctx),
            Arc::clone(probe),
            HASH,
        ))
        .with_copy_ledger(ledger.clone());
        let compress: WorkloadDriver<Compress> = WorkloadDriver::new(TimedWork::new(
            CompressWork::new(&rig.ctx),
            Arc::clone(probe),
            COMPRESS,
        ))
        .with_copy_ledger(ledger.clone());
        let (seg, rabin, lzss, pass) = (
            self.cfg.batch_size,
            self.cfg.rabin,
            self.cfg.lzss,
            self.pass_len() as u64,
        );
        let mut hash_gpus: Vec<Option<_>> = rig.hash_gpus.into_iter().map(Some).collect();
        let mut compress_gpus: Vec<Option<_>> = rig.compress_gpus.into_iter().map(Some).collect();
        let (feed_probe, dup_probe) = (Arc::clone(probe), Arc::clone(probe));
        let mut cache = DedupCache::new();
        Pipeline::builder()
            .burst(1)
            .source(move |em| {
                for rec in items {
                    let t0 = feed_probe.now();
                    let mut batch = make_batches(&rec.payload, seg, &rabin)
                        .pop()
                        .expect("one batch per segment");
                    batch.index = (rec.idx % pass) as usize;
                    if feed_probe.on() {
                        let t1 = now_ns();
                        feed_probe.stamp_at(rec.idx, CHUNK_END, t1);
                        feed_probe.sample("dedup.chunk_ns", t1 - t0);
                    }
                    if !em.send(Tagged {
                        idx: rec.idx,
                        inner: batch,
                    }) {
                        break;
                    }
                }
            })
            .farm_ordered(DEVICES, |r| {
                TimedNode::new(
                    hash.clone(),
                    hash_gpus[r].take().expect("one replica per GPU"),
                )
            })
            .map(move |done: Done<Hash>| {
                let idx = done.item.idx;
                dup_probe.stamp(idx, DUP);
                if done.item.inner.index == 0 {
                    cache = DedupCache::new();
                }
                let (digests, gpu) = done.batch;
                let classes: Vec<BlockClass> = digests.iter().map(|&d| cache.classify(d)).collect();
                if dup_probe.on() {
                    let dups = classes
                        .iter()
                        .filter(|c| matches!(c, BlockClass::Dup { .. }))
                        .count();
                    dup_probe.add("dedup.dup_blocks", dups as u64);
                    dup_probe.add("dedup.blocks", classes.len() as u64);
                    dup_probe.stamp(idx, DUP + 1);
                    dup_probe.sample(
                        "dedup.dupcheck_ns",
                        dup_probe.get(idx, DUP + 1) - dup_probe.get(idx, DUP),
                    );
                }
                Tagged {
                    idx,
                    inner: Classified {
                        batch: done.item.inner,
                        classes,
                        gpu,
                    },
                }
            })
            .farm_ordered(DEVICES, |r| CompressNode {
                driver: compress.clone(),
                gpu: compress_gpus[r].take().expect("one replica per GPU"),
            })
            .for_each(|done: Done<Compress>| {
                let idx = done.item.idx;
                egress.received(idx);
                let bytes = Archive {
                    lzss,
                    entries: done.batch,
                }
                .to_bytes();
                egress.write(idx, &bytes);
            });
        None
    }

    fn check_record(&self, k: usize, out: &[u8]) -> bool {
        self.expected.get(k).is_some_and(|e| e[..] == *out)
    }

    fn check_pass(&self, outs: &[&[u8]]) -> bool {
        self.entries_of(outs).is_some_and(|a| {
            a.entries == self.reference.entries
                && a.decompress().is_ok_and(|bytes| bytes == self.data)
        })
    }
}

/// Stage-4 node: the full ladder for device-resident batches, the host
/// path (no fault events) for batches stage 2 computed on the host.
struct CompressNode {
    driver: WorkloadDriver<Compress>,
    gpu: DedupGpu<CudaOffload>,
}

impl Node for CompressNode {
    type In = Tagged<Classified>;
    type Out = Done<Compress>;

    fn svc(&mut self, item: Self::In, out: &mut Emitter<'_, Self::Out>) {
        let work = self.driver.workload();
        let batch = if item.inner.gpu.is_some() {
            let mut b = work.make_batch(&item);
            self.driver.process_into(&mut self.gpu, &item, &mut b);
            b
        } else {
            self.driver.process_host(&item)
        };
        work.finish(item.idx);
        out.send(Done { item, batch });
    }
}
