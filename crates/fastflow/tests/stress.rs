//! Stress and interaction tests for the runtime: deep pipelines, farms in
//! sequence, tiny queues, every wait strategy — the configurations where
//! ordering and EOS bugs hide.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fastflow::{channel, node, Emitter, Node, Pipeline, SchedPolicy, WaitStrategy};

#[test]
fn deep_pipeline_with_two_farms_preserves_order() {
    for ws in [WaitStrategy::Block, WaitStrategy::Yield] {
        let out = Pipeline::builder()
            .wait(ws)
            .capacity(4) // tiny queues force backpressure
            .from_iter(0..2_000u64)
            .map(|x| x + 1)
            .farm_ordered(3, |_| node::map(|x: u64| x * 2))
            .map(|x| x - 1)
            .farm_ordered(2, |_| node::map(|x: u64| x ^ 0xAB))
            .collect();
        let expected: Vec<u64> = (0..2_000u64).map(|x| (((x + 1) * 2) - 1) ^ 0xAB).collect();
        assert_eq!(out, expected, "strategy {ws:?}");
    }
}

#[test]
fn on_demand_farm_with_skewed_work_is_complete_and_correct() {
    let mut out = Pipeline::builder()
        .capacity(2)
        .from_iter(0..500u64)
        .farm_with(
            4,
            |_| {
                node::map(|x: u64| {
                    // Skewed work: every 16th item is "expensive".
                    if x.is_multiple_of(16) {
                        std::thread::yield_now();
                    }
                    x * 3
                })
            },
            SchedPolicy::OnDemand,
            false,
        )
        .collect();
    out.sort_unstable();
    let mut expected: Vec<u64> = (0..500).map(|x| x * 3).collect();
    expected.sort_unstable();
    assert_eq!(out, expected);
}

#[test]
fn multi_output_stage_feeding_a_farm() {
    // Stage 1 fans each item into 3; the farm then processes 3N items.
    let out = Pipeline::builder()
        .from_iter(0..100u32)
        .node(node::flat_map(|x: u32| vec![x, x + 1000, x + 2000]))
        .farm_ordered(3, |_| node::map(|x: u32| x as u64))
        .collect();
    assert_eq!(out.len(), 300);
    for (i, chunk) in out.chunks(3).enumerate() {
        let base = i as u64;
        assert_eq!(chunk, &[base, base + 1000, base + 2000]);
    }
}

#[test]
fn stateful_reducer_after_a_farm_sees_all_items() {
    struct Sum {
        acc: u64,
    }
    impl Node for Sum {
        type In = u64;
        type Out = u64;
        fn svc(&mut self, input: u64, _out: &mut Emitter<'_, u64>) {
            self.acc += input;
        }
        fn on_eos(&mut self, out: &mut Emitter<'_, u64>) {
            out.send(self.acc);
        }
    }
    let out = Pipeline::builder()
        .from_iter(1..=1_000u64)
        .farm(4, |_| node::map(|x: u64| x))
        .node(Sum { acc: 0 })
        .collect();
    assert_eq!(out, vec![500_500]);
}

#[test]
fn empty_stream_closes_every_stage_cleanly() {
    let out = Pipeline::builder()
        .from_iter(std::iter::empty::<u64>())
        .farm_ordered(4, |_| node::map(|x: u64| x))
        .map(|x| x)
        .collect();
    assert!(out.is_empty());
}

#[test]
fn single_item_stream() {
    let out = Pipeline::builder()
        .from_iter(std::iter::once(42u64))
        .farm_ordered(8, |_| node::map(|x: u64| x + 1))
        .collect();
    assert_eq!(out, vec![43]);
}

#[test]
fn capacity_one_everywhere_still_completes() {
    let out = Pipeline::builder()
        .capacity(1)
        .from_iter(0..300u64)
        .farm_ordered(2, |_| node::map(|x: u64| x))
        .map(|x| x)
        .collect();
    assert_eq!(out, (0..300).collect::<Vec<u64>>());
}

#[test]
fn many_replicas_more_than_items() {
    let out = Pipeline::builder()
        .from_iter(0..5u64)
        .farm_ordered(16, |_| node::map(|x: u64| x * 7))
        .collect();
    assert_eq!(out, vec![0, 7, 14, 21, 28]);
}

#[test]
fn block_mode_ping_pong_never_loses_a_wakeup() {
    // Two capacity-1 Block-mode channels in a loop: every round trip
    // hands the token across twice, and with one item in flight each side
    // parks on almost every hop. A notify that skipped a parked waiter
    // would hang here, so the watchdog turns a lost wakeup into a failure.
    const ROUNDS: u64 = 100_000;
    let (ping_tx, ping_rx) = channel::<u64>(1, WaitStrategy::Block);
    let (pong_tx, pong_rx) = channel::<u64>(1, WaitStrategy::Block);
    let echo = thread::spawn(move || {
        while let Some(v) = ping_rx.recv() {
            if pong_tx.send(v + 1).is_err() {
                break;
            }
        }
        ping_rx
    });
    let (done_tx, done_rx) = mpsc::channel();
    let pinger = thread::spawn(move || {
        for i in 0..ROUNDS {
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv(), Some(i + 1));
        }
        drop(ping_tx);
        done_tx.send(()).unwrap();
        pong_rx
    });
    if done_rx.recv_timeout(Duration::from_secs(120)).is_err() {
        panic!("ping-pong stalled: a Block-mode wakeup was lost");
    }
    let pong_rx = pinger.join().unwrap();
    let ping_rx = echo.join().unwrap();
    assert!(!pong_rx.items_signal().has_waiters());
    assert!(!ping_rx.items_signal().has_waiters());
}
