//! Liveness of the batched hand-offs at the default burst (32).
//!
//! Every shape below is fed by a *lock-step* source: it yields item `k`
//! only after the sink has received item `k - 1`. A runtime that holds a
//! ready item in a buffer until its burst fills (or until the stream
//! ends) deadlocks on item 0, because the next item it waits for is
//! never produced. Each shape runs under a watchdog so a hang fails the
//! test instead of stalling the suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use hetstream::fastflow::{node, Pipeline};
use hetstream::gpusim::{CudaOffload, DeviceProps, GpuSystem};
use hetstream::mandel::hybrid::MandelWork;
use hetstream::mandel::FractalParams;
use hetstream::workload::{RoundRobinPlacement, WorkloadDriver};

const ITEMS: u64 = 200;
const WATCHDOG: Duration = Duration::from_secs(60);

/// Items `0..ITEMS`, each released only once `received` reaches its index.
fn lock_step(received: Arc<AtomicU64>) -> impl Iterator<Item = u64> + Send + 'static {
    (0..ITEMS).inspect(move |&k| {
        while received.load(Ordering::Acquire) < k {
            thread::sleep(Duration::from_micros(50));
        }
    })
}

/// Run `shape` on its own thread and fail if it has not finished within
/// the watchdog timeout. `shape` returns the items its sink saw, in order.
fn within_watchdog(label: &str, shape: impl FnOnce() -> Vec<u64> + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done_tx.send(shape());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(seen) => {
            runner.join().expect("runner thread");
            assert_eq!(
                seen,
                (0..ITEMS).collect::<Vec<u64>>(),
                "{label}: wrong output"
            );
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The runner panicked; surface its message.
            runner.join().expect("runner thread");
            unreachable!("{label}: runner exited without a result");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: lock-step stream hung — a stage holds a ready item")
        }
    }
}

/// Sink bookkeeping shared by every shape: record the item, release the
/// next one.
fn receive(seen: &mut Vec<u64>, received: &AtomicU64, item: u64) {
    seen.push(item);
    received.store(seen.len() as u64, Ordering::Release);
}

#[test]
fn lock_step_source_through_a_node_stage() {
    within_watchdog("from_iter.node.for_each", || {
        let received = Arc::new(AtomicU64::new(0));
        let mut seen = Vec::new();
        let r = Arc::clone(&received);
        Pipeline::builder()
            .from_iter(lock_step(Arc::clone(&received)))
            .node(node::map(|x: u64| x))
            .for_each(|x| receive(&mut seen, &r, x));
        seen
    });
}

#[test]
fn lock_step_source_through_an_ordered_farm() {
    within_watchdog("farm_ordered", || {
        let received = Arc::new(AtomicU64::new(0));
        let mut seen = Vec::new();
        let r = Arc::clone(&received);
        Pipeline::builder()
            .from_iter(lock_step(Arc::clone(&received)))
            .farm_ordered(3, |_| node::map(|x: u64| x))
            .for_each(|x| receive(&mut seen, &r, x));
        seen
    });
}

/// One row per item, so `ITEMS` rows make `ITEMS` work items.
fn mandel_driver() -> WorkloadDriver<MandelWork<CudaOffload>> {
    let sys = GpuSystem::new(2, DeviceProps::titan_xp());
    let params = FractalParams::view(ITEMS as usize, 32);
    WorkloadDriver::new(MandelWork::<CudaOffload>::new(&sys, &params, 1, 2, 2))
}

#[test]
fn lock_step_source_through_run_ordered() {
    within_watchdog("WorkloadDriver::run_ordered", || {
        let received = Arc::new(AtomicU64::new(0));
        let mut seen = Vec::new();
        let items = lock_step(Arc::clone(&received)).map(|k| k as usize);
        mandel_driver().run_ordered(2, items, |done| {
            receive(&mut seen, &received, done.item as u64)
        });
        seen
    });
}

#[test]
fn lock_step_source_through_run_placed() {
    within_watchdog("WorkloadDriver::run_placed", || {
        let received = Arc::new(AtomicU64::new(0));
        let mut seen = Vec::new();
        let items = lock_step(Arc::clone(&received)).map(|k| k as usize);
        mandel_driver().run_placed(
            RoundRobinPlacement::new(2),
            2,
            |row| *row as u64,
            items,
            |done| receive(&mut seen, &received, done.item as u64),
        );
        seen
    });
}
