//! The interconnect boundary between SM execution domains and the shared
//! memory system (DESIGN.md §13).
//!
//! Each SM owns one [`IcnPort`]: a typed request/response queue pair that is
//! the *only* channel through which warp memory instructions reach the
//! shared L2/DRAM hierarchy. During its cycle step an SM performs its
//! private L1 lookups locally and enqueues one [`IcnRequest`] per global
//! memory instruction (the issuing warp's scoreboard is parked on
//! `PENDING` meanwhile). After all SM domains have stepped, the machine
//! drains every port in stable SM-index order — request order within a port
//! is the SM's own scheduler order — so the shared queues and L2 state
//! observe one canonical sequence that depends on no SM's internals.

use crate::types::{Addr, Cycle, KernelId};

/// Scoreboard sentinel for a warp whose memory instruction is sitting in an
/// [`IcnPort`] awaiting the drain. Never observable by scheduling decisions:
/// the drain runs in the same cycle, before anything re-examines the warp,
/// and replaces it with the real completion cycle.
pub(crate) const PENDING: Cycle = Cycle::MAX;

/// One warp global-memory instruction crossing the SM→memory boundary.
#[derive(Debug, Clone, Copy)]
pub struct IcnRequest {
    /// Kernel the issuing warp belongs to (traffic accounting key).
    pub kernel: KernelId,
    /// Warp slot on the issuing SM; routes the response back.
    pub warp_slot: u16,
    /// Coalesced line count before L1 filtering (the memory domain owns the
    /// L1-access ledger, so the count travels with the request).
    pub total_lines: u32,
    /// Start of this request's miss addresses in `IcnPort::lines`.
    pub miss_start: u32,
    /// Number of miss addresses (lines that missed the SM's private L1).
    pub miss_len: u32,
}

/// The memory domain's answer: when the slowest transaction of the request
/// completes, i.e. when the warp's operands are ready.
#[derive(Debug, Clone, Copy)]
pub struct IcnResponse {
    /// Warp slot the completion cycle belongs to.
    pub warp_slot: u16,
    /// Completion cycle to write into the warp's scoreboard.
    pub ready_at: Cycle,
}

/// Per-SM interconnect port: requests filled during the SM's step, drained
/// into [`crate::memsys::MemSystem::serve`] at the barrier, responses applied
/// back to the warp scoreboards. All three buffers are empty outside the
/// step→drain window of a single cycle, so the port is pure transit state
/// and is excluded from snapshots.
#[derive(Debug, Default)]
pub struct IcnPort {
    /// Requests in SM-scheduler issue order.
    pub(crate) requests: Vec<IcnRequest>,
    /// Miss-address arena shared by this port's requests (avoids a Vec per
    /// request on the hot path).
    pub(crate) lines: Vec<Addr>,
    /// Filled by the drain, applied to warp scoreboards, then cleared.
    pub(crate) responses: Vec<IcnResponse>,
}

impl IcnPort {
    /// Whether the port holds no in-flight traffic (the invariant outside
    /// the step→drain window).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.lines.is_empty() && self.responses.is_empty()
    }
}
