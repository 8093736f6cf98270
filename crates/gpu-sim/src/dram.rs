//! Bandwidth-limited service queues for L2 slices and DRAM channels.
//!
//! Each memory controller owns two [`ServiceQueue`]s — one modelling the L2
//! slice's service port and one the DRAM channel behind it. A queue serves
//! one transaction every `service_cycles`; requests arriving while the queue
//! is busy wait, which is how bandwidth contention between co-running kernels
//! emerges (the effect Fig. 7's M+M results hinge on).

use crate::types::Cycle;

/// A single-server queue with fixed service time and bounded backlog.
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    next_free: Cycle,
    service_cycles: u32,
    max_backlog: u64,
    served: u64,
    total_wait: u64,
    peak_wait: u64,
}

impl ServiceQueue {
    /// Creates a queue serving one transaction every `service_cycles`,
    /// saturating once the backlog exceeds `max_backlog` cycles.
    pub fn new(service_cycles: u32, max_backlog: u32) -> Self {
        ServiceQueue {
            next_free: 0,
            service_cycles: service_cycles.max(1),
            max_backlog: u64::from(max_backlog),
            served: 0,
            total_wait: 0,
            peak_wait: 0,
        }
    }

    /// Enqueues one transaction arriving at `now`; returns its completion time.
    ///
    /// The returned cycle is `>= now + service_cycles`; the difference beyond
    /// that is queueing delay.
    pub fn serve(&mut self, now: Cycle) -> Cycle {
        let mut start = self.next_free.max(now);
        // Saturate: past the backlog cap the queue stops growing and every
        // new request sees the capped delay. This bounds worst-case warp
        // stall times without changing steady-state throughput.
        if start - now > self.max_backlog {
            start = now + self.max_backlog;
        } else {
            self.next_free = start + Cycle::from(self.service_cycles);
        }
        self.served += 1;
        self.total_wait += start - now;
        self.peak_wait = self.peak_wait.max(start - now);
        start + Cycle::from(self.service_cycles)
    }

    /// Number of transactions served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean queueing delay per transaction, in cycles.
    pub fn mean_wait(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.served as f64
        }
    }

    /// Total queueing delay accumulated across all served transactions.
    pub fn total_wait(&self) -> u64 {
        self.total_wait
    }

    /// Worst queueing delay any single transaction has seen, in cycles.
    pub fn peak_wait(&self) -> u64 {
        self.peak_wait
    }

    /// Current backlog depth in cycles: how long a request arriving at `now`
    /// would wait before service begins.
    pub fn backlog_at(&self, now: Cycle) -> u64 {
        self.next_free.saturating_sub(now)
    }

    /// Makes this decoded queue stand in for `built`, one
    /// [`ServiceQueue::new`] made: takes its service time and backlog cap,
    /// which the wire does not carry, and answers whether the decoded waits
    /// fit the cap, as each wait [`ServiceQueue::serve`] adds to the total
    /// unchecked does.
    pub(crate) fn adopt(&mut self, built: &ServiceQueue) -> bool {
        (self.service_cycles, self.max_backlog) = (built.service_cycles, built.max_backlog);
        self.peak_wait <= self.max_backlog
            && self.total_wait <= self.served.saturating_mul(self.max_backlog)
    }
}

// The service time and the backlog cap are the configuration's: `adopt`
// takes them from the receiver.
crate::impl_snap_struct!(ServiceQueue {
    next_free,
    served,
    total_wait,
    peak_wait,
} skip { service_cycles, max_backlog });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_serves_at_service_time() {
        let mut q = ServiceQueue::new(3, 100);
        assert_eq!(q.serve(10), 13);
        assert_eq!(q.backlog_at(13), 0);
        assert_eq!(q.backlog_at(12), 1);
    }

    #[test]
    fn back_to_back_requests_queue_up() {
        let mut q = ServiceQueue::new(2, 100);
        assert_eq!(q.serve(0), 2);
        assert_eq!(q.serve(0), 4);
        assert_eq!(q.serve(0), 6);
        assert_eq!(q.served(), 3);
        // waits: 0, 2, 4 -> mean 2
        assert!((q.mean_wait() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gap_lets_queue_drain() {
        let mut q = ServiceQueue::new(2, 100);
        q.serve(0);
        assert_eq!(q.serve(50), 52, "queue drained by cycle 50");
    }

    #[test]
    fn backlog_saturates() {
        let mut q = ServiceQueue::new(10, 20);
        // Flood the queue at cycle 0.
        let mut worst = 0;
        for _ in 0..100 {
            worst = worst.max(q.serve(0));
        }
        // Completion never exceeds now + max_backlog + service.
        assert!(worst <= 30, "worst completion {worst} exceeds saturation bound");
    }

    #[test]
    fn throughput_matches_service_rate() {
        let mut q = ServiceQueue::new(4, 1_000);
        let mut completions = Vec::new();
        // One arrival per cycle: faster than the 4-cycle service rate.
        for now in 0..10 {
            completions.push(q.serve(now));
        }
        // Steady-state completions are exactly 4 cycles apart.
        for w in completions.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn a_decoded_queue_takes_its_rates_and_keeps_its_waits_under_the_cap() {
        use crate::snap::{decode_from_slice, encode_to_vec};
        let mut q = ServiceQueue::new(2, 10);
        for _ in 0..20 {
            q.serve(0);
        }
        let mut back: ServiceQueue = decode_from_slice(&encode_to_vec(&q)).expect("codec");
        assert!(back.adopt(&q), "its own waits fit");
        assert_eq!((back.service_cycles, back.max_backlog), (2, 10));
        let mut twin = q.clone();
        assert_eq!((back.serve(0), back.total_wait()), (twin.serve(0), twin.total_wait()));
        back.peak_wait = 11;
        assert!(!back.adopt(&q), "a wait past the cap");
    }

    #[test]
    fn zero_service_clamped_to_one() {
        let mut q = ServiceQueue::new(0, 10);
        assert_eq!(q.serve(0), 1);
    }
}
