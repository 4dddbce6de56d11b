//! `hashsearch`: small nonce ranges placed by the cost-model scheduler
//! over a two-device mixed fleet (one Titan XP, one derated to half
//! speed) through `WorkloadDriver::run_placed`.
//!
//! A record is a nonce range `[u64 start][u32 count]` (LE); its result is
//! the range's top-k candidates, each `[u64 nonce][u32 score][20-byte
//! digest]`. The seed picks the 64-byte header and every range's size
//! (`range_nonces` ± 25%). Ranges are keyed into [`LANES`] recurring
//! lanes, so residency matters to the scheduler. Each pass's merged
//! top-k must equal `search_cpu` over the whole nonce space.

use std::sync::Arc;

use dedup::sha1::Digest;
use gpusim::{CudaOffload, DeviceProps, GpuSystem};
use hashsearch::{
    score, search_cpu, Candidate, NonceRange, SearchConfig, SearchWork, TopK, DIGEST_BYTES,
};
use simtime::XorShift64;
use taskgraph::{CostModelScheduler, SchedConfig};
use telemetry::copy::CopyLedger;
use telemetry::{Recorder, SchedStats};
use workload::{Placement, WorkloadDriver};

use super::{Params, SINGLE_WALK};
use crate::adapters::{Tagged, TimedPlacement, TimedWork};
use crate::path::{App, Egress, Items};
use crate::trace::{self, Path, Probe};

/// Recurring key lanes ranges are keyed into.
pub const LANES: u64 = 8;
/// Devices of the mixed fleet.
const DEVICES: usize = 2;
/// Bytes per encoded candidate.
const CANDIDATE_BYTES: usize = 8 + 4 + DIGEST_BYTES;

/// The hashsearch workload.
pub struct HashSearch {
    cfg: SearchConfig,
    ranges: Vec<NonceRange>,
    records: Vec<[u8; 12]>,
    /// Encoded per-range reference top-k.
    expected: Vec<Vec<u8>>,
    merged: Vec<Candidate>,
}

/// Fleet, scheduler and workload description.
pub struct HashRig {
    sys: Arc<GpuSystem>,
    sched: Arc<CostModelScheduler>,
    work: SearchWork<CudaOffload>,
}

fn encode(top: &[Candidate], out: &mut Vec<u8>) {
    out.clear();
    for c in top {
        out.extend_from_slice(&c.nonce.to_le_bytes());
        out.extend_from_slice(&c.score.to_le_bytes());
        out.extend_from_slice(&c.digest.0);
    }
}

fn decode(bytes: &[u8]) -> Option<Vec<Candidate>> {
    if !bytes.len().is_multiple_of(CANDIDATE_BYTES) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(CANDIDATE_BYTES)
            .map(|c| Candidate {
                nonce: u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                score: u32::from_le_bytes(c[8..12].try_into().expect("4 bytes")),
                digest: Digest(c[12..].try_into().expect("20 bytes")),
            })
            .collect(),
    )
}

fn range_of(p: &[u8]) -> (u64, usize) {
    (
        u64::from_le_bytes(p[..8].try_into().expect("8 bytes")),
        u32::from_le_bytes(p[8..12].try_into().expect("4 bytes")) as usize,
    )
}

impl HashSearch {
    /// Generate `ranges` ranges of about `range_nonces` nonces from `seed`,
    /// keeping the top `top` candidates.
    pub fn new(seed: u64, p: &Params) -> HashSearch {
        let (n, size, k): (usize, usize, usize) =
            (p.get("ranges"), p.get("range_nonces"), p.get("top"));
        let mut rng = XorShift64::new(seed ^ 0x6861_7368);
        let mut cfg = SearchConfig::new(rng.bytes(64), 0);
        cfg.k = k;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0u64;
        for index in 0..n {
            let count = rng.range_usize(size - size / 4, size + size / 4 + 1);
            ranges.push(NonceRange {
                index,
                start,
                count,
            });
            start += count as u64;
        }
        cfg.total_nonces = start;
        let records = ranges
            .iter()
            .map(|r| {
                let mut b = [0u8; 12];
                b[..8].copy_from_slice(&r.start.to_le_bytes());
                b[8..].copy_from_slice(&(r.count as u32).to_le_bytes());
                b
            })
            .collect();
        HashSearch {
            cfg,
            ranges,
            records,
            expected: Vec::new(),
            merged: Vec::new(),
        }
    }
}

impl App for HashSearch {
    type Rig = HashRig;

    fn path(&self) -> &'static Path {
        &SINGLE_WALK
    }

    fn pass_len(&self) -> usize {
        self.ranges.len()
    }

    fn record(&self, k: usize) -> &[u8] {
        &self.records[k]
    }

    fn build_reference(&mut self) {
        self.merged = search_cpu(&self.cfg);
        self.expected = self
            .ranges
            .iter()
            .map(|r| {
                let mut one = self.cfg.clone();
                one.start_nonce = r.start;
                one.total_nonces = r.count as u64;
                let mut bytes = Vec::new();
                encode(&search_cpu(&one), &mut bytes);
                bytes
            })
            .collect();
    }

    fn setup(&self) -> HashRig {
        let sys = GpuSystem::new_mixed(vec![
            DeviceProps::titan_xp(),
            DeviceProps::titan_xp().derated("titan-xp-half", 0.5),
        ]);
        // As in the hashsearch harness: ranges cost tens of modeled µs,
        // so the migration penalty must sit below the fast/slow delta.
        let mut sched_cfg = SchedConfig::for_devices(DEVICES);
        sched_cfg.migration_penalty_ns = 2_000;
        let sched = CostModelScheduler::new(&sys, sched_cfg, &Recorder::default(), "e2e.graph");
        let work = SearchWork::<CudaOffload>::new(&sys, &self.cfg, DEVICES, DEVICES);
        HashRig { sys, sched, work }
    }

    fn fleet(&self, rig: &HashRig) -> Arc<GpuSystem> {
        Arc::clone(&rig.sys)
    }

    fn run(
        &self,
        rig: HashRig,
        items: Items,
        egress: &mut Egress,
        probe: &Arc<Probe>,
        ledger: &CopyLedger,
    ) -> Option<SchedStats> {
        let recycle = rig.work.recycler().clone();
        let driver = WorkloadDriver::new(TimedWork::new(rig.work, Arc::clone(probe), trace::STAGE))
            .with_copy_ledger(ledger.clone());
        let placer = TimedPlacement::new(
            Arc::clone(&rig.sched) as Arc<dyn Placement>,
            Arc::clone(probe),
            trace::STAGE,
        );
        let (k, pass) = (self.cfg.k, self.pass_len() as u64);
        let feed = items.map(move |rec| {
            let (start, count) = range_of(&rec.payload);
            Tagged {
                idx: rec.idx,
                inner: NonceRange {
                    index: (rec.idx % pass) as usize,
                    start,
                    count,
                },
            }
        });
        let mut out = Vec::with_capacity(k * CANDIDATE_BYTES);
        driver.run_placed(
            placer,
            DEVICES,
            |t: &Tagged<NonceRange>| t.idx % LANES,
            feed,
            |done| {
                let idx = done.item.idx;
                egress.received(idx);
                let r = &done.item.inner;
                let mut top = TopK::new(k);
                for (i, raw) in done
                    .batch
                    .chunks_exact(DIGEST_BYTES)
                    .take(r.count)
                    .enumerate()
                {
                    let digest = Digest(raw.try_into().expect("20 bytes"));
                    top.offer(Candidate {
                        nonce: r.start + i as u64,
                        score: score(&digest),
                        digest,
                    });
                }
                encode(&top.into_sorted(), &mut out);
                egress.write(idx, &out);
                recycle.give(done.batch);
            },
        );
        Some(rig.sched.counters().snapshot())
    }

    fn check_record(&self, k: usize, out: &[u8]) -> bool {
        self.expected.get(k).is_some_and(|e| e[..] == *out)
    }

    fn check_pass(&self, outs: &[&[u8]]) -> bool {
        let mut top = TopK::new(self.cfg.k);
        for out in outs {
            let Some(cands) = decode(out) else {
                return false;
            };
            for c in cands {
                top.offer(c);
            }
        }
        top.into_sorted() == self.merged
    }
}
