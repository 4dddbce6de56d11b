//! Per-record tracing kept in memory and written once at the end.
//!
//! Every record of a phase gets a row of *stamps*: monotonic instants at
//! the boundaries between layers (due, appended, polled, received,
//! processed, re-emitted, acked), set by whichever thread sees the record
//! cross that boundary. Consecutive stamps along a workload's [`Path`]
//! are the record's top-level spans. The adapters add *child* spans
//! (device attempts, CPU fallbacks, placement decisions) under a named
//! top-level span. [`Probe::reconcile`] checks that the spans of every
//! record are complete, ordered and nested. The top-level spans then
//! partition the record's due → ack interval, so its self times sum to
//! its end-to-end latency by construction: the check is on the stamps,
//! not against a second clock. When the probe is off every call is a
//! branch and nothing is read from the clock.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide epoch, plus one (so 0 means "unset").
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// When the paced generator meant to append the record.
pub const DUE: usize = 0;
/// Generator `send` begins.
pub const APPEND_START: usize = 1;
/// Generator `flush` (fsync) returned: the record is durable.
pub const APPEND_END: usize = 2;
/// The `Source::next_batch` call that delivered the record began.
pub const POLL_START: usize = 3;
/// ... and returned.
pub const POLL_END: usize = 4;
/// The pipeline's feeder took the record off the pump channel.
pub const RECV: usize = 5;
/// First of the workload-specific stamps (`STAGE .. STAGE + 8`).
pub const STAGE: usize = 6;
/// The ordered sink received the finished record.
pub const SINK: usize = 14;
/// Egress `Sink::send` began.
pub const SEND: usize = 15;
/// The egress receipt is acked (fsynced).
pub const ACK: usize = 16;
const SLOTS: usize = 17;

/// A workload's blocking path: the stamp slots a record crosses, in
/// order, and the layer name of the span between each consecutive pair.
pub struct Path {
    /// Stamp slots, first to last.
    pub slots: &'static [usize],
    /// `names[k]` labels the span `slots[k] .. slots[k + 1]`.
    pub names: &'static [&'static str],
}

/// A child span recorded by an adapter under the top-level span `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (e.g. `workload.device`).
    pub name: &'static str,
    /// Top-level span it nests in.
    pub parent: &'static str,
    /// Record index within the phase.
    pub idx: u64,
    /// Start, [`now_ns`] units.
    pub start: u64,
    /// End, [`now_ns`] units.
    pub end: u64,
}

/// Stamps, child spans, sample series and counters of one phase.
pub struct Probe {
    on: bool,
    shards: u64,
    stamps: Vec<[AtomicU64; SLOTS]>,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<HashMap<&'static str, Vec<u64>>>,
    counters: Mutex<HashMap<&'static str, u64>>,
}

/// Result of [`Probe::reconcile`].
#[derive(Debug, Default)]
pub struct Reconciled {
    /// Records checked.
    pub records: usize,
    /// Missing stamps, out-of-order stamps and children outside their
    /// parent span.
    pub violations: u64,
    /// Self time per layer, summed over the records, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// End-to-end latency summed over the records, ns.
    pub e2e_ns: u64,
    /// First due instant to last ack, ns.
    pub wall_ns: u64,
}

impl Probe {
    /// A probe for `records` records spread over `shards` shards; `on`
    /// false makes every call a no-op.
    pub fn new(on: bool, records: usize, shards: u32) -> Probe {
        Probe {
            on,
            shards: u64::from(shards),
            stamps: if on {
                (0..records).map(|_| Default::default()).collect()
            } else {
                Vec::new()
            },
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(HashMap::new()),
            counters: Mutex::new(HashMap::new()),
        }
    }

    /// Whether this probe records anything.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock, or 0 when off (so untraced runs never read it).
    pub fn now(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    /// Set stamp `slot` of record `idx` to `t`.
    pub fn stamp_at(&self, idx: u64, slot: usize, t: u64) {
        if self.on {
            if let Some(row) = self.stamps.get(idx as usize) {
                row[slot].store(t, Relaxed);
            }
        }
    }

    /// Set stamp `slot` of record `idx` to now.
    pub fn stamp(&self, idx: u64, slot: usize) {
        if self.on {
            self.stamp_at(idx, slot, now_ns());
        }
    }

    /// Record a child span of record `idx` under top-level span `parent`.
    pub fn span(&self, name: &'static str, parent: &'static str, idx: u64, start: u64, end: u64) {
        if self.on {
            self.spans.lock().expect("spans").push(Span {
                name,
                parent,
                idx,
                start,
                end,
            });
        }
    }

    /// Append one sample to series `name`.
    pub fn sample(&self, name: &'static str, v: u64) {
        if self.on {
            self.samples
                .lock()
                .expect("samples")
                .entry(name)
                .or_default()
                .push(v);
        }
    }

    /// Add `v` to counter `name`.
    pub fn add(&self, name: &'static str, v: u64) {
        if self.on {
            *self
                .counters
                .lock()
                .expect("counters")
                .entry(name)
                .or_default() += v;
        }
    }

    /// A copy of series `name`.
    pub fn samples(&self, name: &str) -> Vec<u64> {
        self.samples
            .lock()
            .expect("samples")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counters")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Stamp `slot` of record `idx` (0 when unset or the probe is off).
    pub fn get(&self, idx: u64, slot: usize) -> u64 {
        self.stamps
            .get(idx as usize)
            .map_or(0, |row| row[slot].load(Relaxed))
    }

    /// Top-level spans of record `idx` along `path`, as
    /// `(name, start, end)`. Two overlaps between the generator and the
    /// pump are resolved here: a poll already running when the record's
    /// append began picks it up, so its poll span starts at the append;
    /// and the append span ends where the record was first polled if
    /// that came first, since a record is readable once written and its
    /// fsync then runs beside, not on, its path.
    fn segments(&self, path: &Path, idx: usize) -> Option<Vec<(&'static str, u64, u64)>> {
        let mut t: Vec<u64> = path
            .slots
            .iter()
            .map(|&s| self.get(idx as u64, s))
            .collect();
        if t.contains(&0) {
            return None;
        }
        let at = |slot| path.slots.iter().position(|&s| s == slot);
        if let (Some(s), Some(e), Some(p)) = (at(APPEND_START), at(APPEND_END), at(POLL_START)) {
            t[p] = t[p].max(t[s]);
            t[e] = t[e].min(t[p]);
        }
        Some(
            path.names
                .iter()
                .enumerate()
                .map(|(k, &name)| (name, t[k], t[k + 1]))
                .collect(),
        )
    }

    /// Check every record's spans along `path` and attribute self time
    /// per layer. A missing stamp, a span running backwards and a child
    /// outside its parent (or overflowing it) each count as a violation.
    pub fn reconcile(&self, path: &Path) -> Reconciled {
        let spans = self.spans.lock().expect("spans");
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans.iter() {
            children.entry(s.idx).or_default().push(s);
        }
        let mut out = Reconciled::default();
        let (mut first, mut last) = (u64::MAX, 0u64);
        for idx in 0..self.stamps.len() {
            let Some(segs) = self.segments(path, idx) else {
                out.violations += 1;
                continue;
            };
            out.records += 1;
            out.e2e_ns += segs[segs.len() - 1].2.saturating_sub(segs[0].1);
            first = first.min(segs[0].1);
            last = last.max(segs[segs.len() - 1].2);
            let mut nested = vec![0u64; segs.len()];
            for c in children.get(&(idx as u64)).map_or(&[][..], |v| &v[..]) {
                let home = segs
                    .iter()
                    .position(|&(n, s, e)| n == c.parent && s <= c.start && c.end <= e);
                match home {
                    Some(k) => {
                        nested[k] += c.end - c.start;
                        *out.self_ns.entry(c.name).or_default() += c.end - c.start;
                    }
                    None => out.violations += 1,
                }
            }
            for (k, &(name, s, e)) in segs.iter().enumerate() {
                if e < s {
                    out.violations += 1;
                    continue;
                }
                let own = (e - s).checked_sub(nested[k]).unwrap_or_else(|| {
                    out.violations += 1;
                    0
                });
                *out.self_ns.entry(name).or_default() += own;
            }
        }
        out.wall_ns = last.saturating_sub(first);
        out
    }

    /// Chrome-trace JSON of every record's top-level and child spans,
    /// keyed by record id `(stream, shard, seq)`, followed by the
    /// per-layer self-time table.
    pub fn chrome_trace(&self, path: &Path, stream: &str, rec: &Reconciled) -> String {
        let mut ev = String::new();
        let mut push = |name: &str, parent: &str, idx: u64, s: u64, e: u64| {
            let (shard, seq) = (idx % self.shards, idx / self.shards);
            if !ev.is_empty() {
                ev.push_str(",\n");
            }
            let _ = write!(
                ev,
                "{{\"name\":\"{name}\",\"cat\":\"{parent}\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{shard},\"tid\":{seq},\"args\":{{\"stream\":\"{stream}\",\
                 \"shard\":{shard},\"seq\":{seq},\"parent\":\"{parent}\"}}}}",
                s as f64 / 1e3,
                e.saturating_sub(s) as f64 / 1e3
            );
        };
        for idx in 0..self.stamps.len() {
            if let Some(segs) = self.segments(path, idx) {
                for (name, s, e) in segs {
                    push(name, "record", idx as u64, s, e);
                }
            }
        }
        for c in self.spans.lock().expect("spans").iter() {
            push(c.name, c.parent, c.idx, c.start, c.end);
        }
        let mut table = String::new();
        for (layer, ns) in &rec.self_ns {
            if !table.is_empty() {
                table.push(',');
            }
            let share = *ns as f64 / rec.wall_ns.max(1) as f64;
            let of_latency = *ns as f64 / rec.e2e_ns.max(1) as f64;
            let _ = write!(
                table,
                "\n    \"{layer}\": {{\"self_ms\": {:.3}, \"share\": {share:.6}, \
                 \"of_latency\": {of_latency:.6}}}",
                *ns as f64 / 1e6
            );
        }
        format!(
            "{{\"traceEvents\": [\n{ev}\n],\n\"displayTimeUnit\": \"ms\",\n\
             \"selfTime\": {{\"wall_ms\": {:.3}, \"e2e_ms\": {:.3}, \"records\": {}, \
             \"violations\": {}, \"layers\": {{{table}\n  }}}}}}\n",
            rec.wall_ns as f64 / 1e6,
            rec.e2e_ns as f64 / 1e6,
            rec.records,
            rec.violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATH: Path = Path {
        slots: &[DUE, APPEND_START, APPEND_END, POLL_START, ACK],
        names: &["lag", "append", "wait", "rest"],
    };

    fn stamped(p: &Probe, idx: u64, t: [u64; 5]) {
        for (slot, v) in PATH.slots.iter().zip(t) {
            p.stamp_at(idx, *slot, v);
        }
    }

    #[test]
    fn ordered_nested_spans_reconcile_exactly() {
        let p = Probe::new(true, 1, 2);
        stamped(&p, 0, [10, 20, 50, 60, 100]);
        p.span("child", "rest", 0, 70, 90);
        let r = p.reconcile(&PATH);
        assert_eq!((r.records, r.violations), (1, 0));
        assert_eq!(r.self_ns["rest"], 20);
        assert_eq!(r.self_ns["child"], 20);
        assert_eq!(r.wall_ns, 90);
        assert_eq!(r.e2e_ns, r.self_ns.values().sum::<u64>());
    }

    #[test]
    fn append_overlapping_the_poll_is_clipped_not_flagged() {
        let p = Probe::new(true, 2, 1);
        stamped(&p, 0, [10, 20, 70, 60, 100]);
        // A poll that began before the append started.
        stamped(&p, 1, [10, 20, 70, 15, 100]);
        let r = p.reconcile(&PATH);
        assert_eq!(r.violations, 0);
        assert_eq!(r.e2e_ns, r.self_ns.values().sum::<u64>());
        assert_eq!(r.self_ns["append"], 40);
        assert_eq!(r.self_ns["wait"], 0);
        assert_eq!(r.self_ns["rest"], 40 + 80);
    }

    #[test]
    fn backwards_stamps_missing_stamps_and_stray_children_are_violations() {
        let p = Probe::new(true, 3, 1);
        stamped(&p, 0, [10, 20, 30, 40, 35]);
        stamped(&p, 1, [10, 20, 30, 40, 50]);
        p.span("child", "rest", 1, 45, 60);
        p.stamp_at(2, DUE, 5);
        let r = p.reconcile(&PATH);
        assert_eq!(r.records, 2);
        assert_eq!(r.violations, 3);
    }

    #[test]
    fn an_off_probe_records_nothing() {
        let p = Probe::new(false, 4, 1);
        p.stamp(0, DUE);
        p.sample("x", 1);
        p.add("y", 1);
        assert_eq!(p.now(), 0);
        assert!(p.samples("x").is_empty());
        assert_eq!(p.counter("y"), 0);
    }
}
