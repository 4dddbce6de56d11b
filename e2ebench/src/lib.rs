//! End-to-end stream benchmark for hetstream.
//!
//! Each workload pushes generated records through the whole stream path:
//! the `ingress::filelog` log, the `ingress::spawn_pump` pump into a
//! `fastflow` channel, batch formation, `taskgraph` placement
//! (hashsearch), the `WorkloadDriver` recovery ladder over `gpusim`, the
//! ordered re-emit, and a `FileLogSink` egress that fsyncs every record.
//! Every phase replays the egress log and checks it bit-for-bit against
//! the sequential reference.
//!
//! Untraced runs give the end-to-end metrics; a traced run times calls
//! into each layer's public traits through the adapters in [`adapters`]
//! and splits every record's end-to-end latency into per-layer self
//! times ([`trace`]).
//! Run it with `python3 e2ebench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` from the repository root.

pub mod adapters;
pub mod apps;
pub mod path;
pub mod stats;
pub mod trace;
