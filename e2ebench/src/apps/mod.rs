//! The benchmark's workloads, each an [`App`](crate::path::App) over the
//! repository's public crates.

use std::collections::HashMap;

use simtime::XorShift64;

use crate::trace::{self, Path};

pub mod dedup;
pub mod hashsearch;
pub mod mandel;

/// Workload parameters (`--set key=value`), with typed lookups.
#[derive(Clone, Debug, Default)]
pub struct Params(pub HashMap<String, String>);

impl Params {
    /// Parameter `key` parsed as `T`; panics with the key name when it is
    /// missing or malformed, since every parameter comes from the
    /// benchmark's own configuration.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        let raw = self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("missing workload parameter {key:?}"));
        raw.parse()
            .unwrap_or_else(|_| panic!("bad workload parameter {key}={raw:?}"))
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut XorShift64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
}

/// The blocking path of a workload with one ladder walk per record
/// (`workload.process` between `STAGE` and `STAGE + 1`).
pub static SINGLE_WALK: Path = Path {
    slots: &[
        trace::DUE,
        trace::APPEND_START,
        trace::APPEND_END,
        trace::POLL_START,
        trace::POLL_END,
        trace::RECV,
        trace::STAGE,
        trace::STAGE + 1,
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
        "fastflow.dispatch",
        "workload.process",
        "fastflow.reorder",
        "egress.encode",
        "egress.write",
    ],
};
