//! Warp scheduling policies.
//!
//! The paper's QoS design deliberately leaves the underlying warp scheduling
//! algorithm unmodified — quotas only *gate* which kernels are eligible.
//! GTO (greedy-then-oldest, the Table 1 policy) keeps issuing from the same
//! warp while it is ready and otherwise falls back to the oldest ready warp;
//! LRR (loose round-robin) is provided for comparison and tests. The picks
//! themselves are folded into the SM's bitmask ready-scan (`sm/issue.rs`);
//! this module holds the policy selector and the per-scheduler state.

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Greedy-then-oldest (Table 1 default).
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// Mutable per-scheduler state.
#[derive(Debug, Clone, Default)]
pub struct SchedulerState {
    /// Warp slot the scheduler last issued from (GTO greediness).
    pub greedy: Option<u16>,
    /// Round-robin cursor (LRR).
    pub rr_cursor: u16,
}

crate::impl_snap_enum!(SchedPolicy { Gto = 0, Lrr = 1 });

crate::impl_snap_struct!(SchedulerState { greedy, rr_cursor });
