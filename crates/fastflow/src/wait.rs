//! Wait strategies and the notification primitive behind the blocking mode.
//!
//! FastFlow's runtime can run its queues in non-blocking (spinning) or
//! blocking mode; this module reproduces that choice. All strategies spin
//! briefly first — the common case in a busy pipeline is that the peer makes
//! progress within a few hundred cycles — and differ in how they escalate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How a channel endpoint waits for its peer when it cannot make progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Busy-spin with `spin_loop` hints, periodically yielding to the OS so
    /// oversubscribed machines (more threads than cores) still progress.
    Spin,
    /// Spin briefly, then `thread::yield_now` in a loop.
    Yield,
    /// Spin briefly, then park on a condition variable until notified.
    /// This is FastFlow's blocking mode; it is the default because it is the
    /// only strategy that wastes no CPU on oversubscribed hosts.
    #[default]
    Block,
}

const SPIN_LIMIT: u32 = 64;
const YIELD_LIMIT: u32 = 128;

/// An epoch-counting wakeup signal whose notify is free when nobody sleeps.
///
/// The epoch counter makes the classic "missed wakeup" race benign: a waiter
/// snapshots the epoch, re-checks its condition, and only parks if the epoch
/// is unchanged — any notification between snapshot and park bumps the epoch
/// and the park is skipped.
///
/// The waiter count lets [`Signal::notify`] skip the mutex and the futex
/// entirely while no thread is parked, which is the common case in a busy
/// pipeline. It is a Dekker handshake between two `SeqCst` pairs:
///
/// * a waiter increments `waiters` (under the lock), *then* re-reads
///   `epoch`;
/// * a notifier increments `epoch`, *then* reads `waiters`.
///
/// All four operations sit in one total order. If the waiter's epoch
/// re-read comes first, its increment precedes it, so the notifier's read
/// that follows its own bump sees `waiters >= 1`, takes the lock and wakes
/// it. The waiter holds the lock from its increment until the condvar
/// atomically releases it on parking, so that wakeup cannot slip in before
/// the park. Otherwise the notifier's bump comes first and the re-read sees
/// the new epoch, so the waiter never parks. Either way no wakeup is lost.
/// The epoch bump is also a release: a waiter whose snapshot already
/// includes it sees the data published before it and does not park at all.
#[derive(Default)]
pub struct Signal {
    epoch: AtomicUsize,
    /// Threads currently inside [`Signal::wait_if`].
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Signal {
    /// New signal with epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current epoch (pair with [`Signal::wait_if`]).
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Wake all current waiters. Without a parked waiter this is one atomic
    /// increment and one load: no lock, no syscall.
    #[inline]
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            // A waiter registered before our bump: the lock is released
            // only once it is parked (or has seen the bump and left).
            drop(self.lock.lock().unwrap());
            self.cond.notify_all();
        }
    }

    /// True while some thread is parked (or about to park) in
    /// [`Signal::wait_if`]. Advisory: it may change right after the read.
    #[inline]
    pub fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) != 0
    }

    /// Park until the epoch moves past `observed` (returns immediately if it
    /// already has).
    pub fn wait_if(&self, observed: usize) {
        let mut guard = self.lock.lock().unwrap();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self.epoch.load(Ordering::SeqCst) == observed {
            guard = self.cond.wait(guard).unwrap();
        }
        // Relaxed: the count publishes no data, and a notifier that still
        // reads this waiter only pays for one spurious wakeup.
        self.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

impl WaitStrategy {
    /// Wait until `ready()` returns true. `signal` is only consulted by the
    /// `Block` strategy; spinning strategies ignore it.
    pub fn wait_until(&self, signal: &Signal, mut ready: impl FnMut() -> bool) {
        let mut spins: u32 = 0;
        loop {
            if ready() {
                return;
            }
            spins += 1;
            match self {
                WaitStrategy::Spin => {
                    if spins.is_multiple_of(1024) {
                        // Keep single-core hosts live even in "spin" mode.
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                WaitStrategy::Yield => {
                    if spins < SPIN_LIMIT {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                WaitStrategy::Block => {
                    if spins < SPIN_LIMIT {
                        std::hint::spin_loop();
                    } else if spins < YIELD_LIMIT {
                        std::thread::yield_now();
                    } else {
                        let epoch = signal.epoch();
                        if ready() {
                            return;
                        }
                        signal.wait_if(epoch);
                    }
                }
            }
        }
    }

    /// True if this strategy needs peers to call [`Signal::notify`].
    #[inline]
    pub fn needs_notify(&self) -> bool {
        matches!(self, WaitStrategy::Block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn ready_immediately_returns() {
        let sig = Signal::new();
        for ws in [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Block] {
            ws.wait_until(&sig, || true);
        }
    }

    #[test]
    fn notify_bumps_epoch() {
        let sig = Signal::new();
        let e = sig.epoch();
        sig.notify();
        assert!(sig.epoch() > e);
    }

    #[test]
    fn wait_if_returns_when_epoch_already_moved() {
        let sig = Signal::new();
        let e = sig.epoch();
        sig.notify();
        sig.wait_if(e); // must not hang
    }

    #[test]
    fn notify_without_waiters_takes_no_lock() {
        // Hold the signal's mutex on this thread; a notify that tried to
        // take it would block until the lock is released below.
        let sig = Arc::new(Signal::new());
        let guard = sig.lock.lock().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sig2 = Arc::clone(&sig);
        let notifier = thread::spawn(move || {
            for _ in 0..1000 {
                sig2.notify();
            }
            done_tx.send(()).unwrap();
        });
        let returned = done_rx.recv_timeout(Duration::from_secs(10)).is_ok();
        drop(guard);
        notifier.join().unwrap();
        assert!(
            returned,
            "notify blocked on the mutex with no waiter parked"
        );
        assert_eq!(sig.epoch(), 1000);
        assert!(!sig.has_waiters());
    }

    #[test]
    fn parked_waiter_is_counted_and_woken() {
        let sig = Arc::new(Signal::new());
        let e = sig.epoch();
        let sig2 = Arc::clone(&sig);
        let waiter = thread::spawn(move || sig2.wait_if(e));
        while !sig.has_waiters() {
            thread::yield_now();
        }
        sig.notify();
        waiter.join().unwrap();
        assert!(!sig.has_waiters());
    }

    #[test]
    fn block_strategy_wakes_on_notify() {
        let sig = Arc::new(Signal::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (sig2, flag2) = (Arc::clone(&sig), Arc::clone(&flag));
        let waiter = thread::spawn(move || {
            WaitStrategy::Block.wait_until(&sig2, || flag2.load(Ordering::Acquire));
        });
        thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        sig.notify();
        waiter.join().unwrap();
    }

    #[test]
    fn spin_and_yield_progress_on_flag() {
        for ws in [WaitStrategy::Spin, WaitStrategy::Yield] {
            let sig = Arc::new(Signal::new());
            let flag = Arc::new(AtomicBool::new(false));
            let (sig2, flag2) = (Arc::clone(&sig), Arc::clone(&flag));
            let waiter = thread::spawn(move || {
                ws.wait_until(&sig2, || flag2.load(Ordering::Acquire));
            });
            thread::sleep(Duration::from_millis(5));
            flag.store(true, Ordering::Release);
            waiter.join().unwrap();
        }
    }

    #[test]
    fn only_block_needs_notify() {
        assert!(!WaitStrategy::Spin.needs_notify());
        assert!(!WaitStrategy::Yield.needs_notify());
        assert!(WaitStrategy::Block.needs_notify());
    }
}
