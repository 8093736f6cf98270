//! Shared scoped-thread executor.
//!
//! Two layers of the repo need bounded, dependency-free parallelism over
//! independent work: the harness sweeps isolated cases (`repro sweep` warms
//! and runs hundreds of simulations) and the fleet steps its busy devices.
//! Both reduce to "claim indices from a shared counter, run a closure on
//! each item", which is all [`parallel_for_each`] does; a thread per call is
//! cheap next to the milliseconds-to-seconds of work per item. Stepping
//! *inside* one simulated machine is serial (DESIGN.md §13.3).
//!
//! The crate is deliberately free of dependencies (the workspace vendors its
//! deps; rayon is not among them) and of any ordering policy: callers that
//! need deterministic merges do them after the call returns, in their own
//! stable order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every item with up to `threads` OS threads, claiming items
/// from a shared counter so uneven item costs balance automatically.
///
/// Runs on the caller's thread when `threads <= 1` or there is a single
/// item. A panic in `f` propagates to the caller once all threads have
/// joined (via [`std::thread::scope`]).
pub fn parallel_for_each<T: Sync, F: Fn(&T) + Sync>(items: &[T], threads: usize, f: F) {
    let workers = threads.min(items.len()).max(1);
    if workers == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                f(item);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn parallel_for_each_visits_every_item_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_each(&hits, 4, |h| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_each_serial_fallback() {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_each(&hits, 1, |h| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_each_propagates_a_worker_panic_after_all_items_ran() {
        // The dead-fleet-device failure mode: every item runs on a spawned
        // worker, so a panicking item kills that worker only. The survivors
        // must still drain the claim counter, and the call must re-raise
        // once they have joined rather than return as if nothing happened.
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let caller = std::thread::current().id();
        let on_worker = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            parallel_for_each(&hits, 4, |h| {
                h.fetch_add(1, Ordering::Relaxed);
                if std::ptr::eq(h, &hits[7]) {
                    on_worker.store(std::thread::current().id() != caller, Ordering::Relaxed);
                    panic!("boom on item 7");
                }
            });
        });
        assert!(result.is_err(), "the worker panic must propagate to the caller");
        assert!(on_worker.load(Ordering::Relaxed), "item 7 ran off the caller thread");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "every item ran exactly once");
    }
}
