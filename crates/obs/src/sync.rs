//! The workspace's one poison-recovering lock helper, and a one-shot
//! gate on it. Every mutex here guards state that stays valid across an
//! unwind, so a poisoned lock is recovered, not cascaded into every
//! thread that touches it.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A one-shot gate: shut until [`Latch::open`], then open for good.
#[derive(Debug, Default)]
pub struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    /// Opens the gate and wakes every waiter.
    pub fn open(&self) {
        *relock(&self.open) = true;
        self.opened.notify_all();
    }

    /// Blocks until the gate opens, for at most `timeout` when one is
    /// given; `true` when open.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        let open = relock(&self.open);
        let shut = |open: &mut bool| !*open;
        let open = match timeout {
            Some(t) => {
                let waited = self.opened.wait_timeout_while(open, t, shut);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
            None => self
                .opened
                .wait_while(open, shut)
                .unwrap_or_else(PoisonError::into_inner),
        };
        *open
    }
}
