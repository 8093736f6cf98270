//! The request lifecycle: queued → running → done, with bounded retries and
//! explicit shedding so no request is ever silently lost.

use std::fmt;

/// Why a request was shed. Every non-completed request carries one of
/// these — the fleet's zero-lost-requests accounting depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Rejected at admission: projected occupancy would have broken a
    /// guaranteed tenant's SLO.
    Admission,
    /// Shed under overload while load shedding was engaged.
    Overload,
    /// The bounded retry budget ran out (timeouts or device failures).
    RetriesExhausted,
    /// No healthy device remained to serve it.
    FleetDead,
    /// Still pending when the fleet hit its tick safety net.
    Unfinished,
}

gpu_sim::impl_snap_enum!(ShedReason {
    Admission = 0,
    Overload = 1,
    RetriesExhausted = 2,
    FleetDead = 3,
    Unfinished = 4,
});

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShedReason::Admission => "admission",
            ShedReason::Overload => "overload",
            ShedReason::RetriesExhausted => "retries-exhausted",
            ShedReason::FleetDead => "fleet-dead",
            ShedReason::Unfinished => "unfinished",
        };
        f.write_str(s)
    }
}

/// Where a request currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Waiting for placement; not placeable before `not_before` (retry
    /// backoff — zero for fresh arrivals).
    Queued {
        /// Earliest fleet cycle at which placement may consider it.
        not_before: u64,
    },
    /// Resident on a device, occupying one kernel slot of its batch, whose
    /// `started_at` is the request's timeout base.
    Running,
    /// Completed: one full grid execution finished.
    Done {
        /// Fleet cycle at which completion was observed.
        finished_at: u64,
    },
    /// Explicitly dropped, with the reason and the cycle.
    Shed {
        /// Why it was dropped.
        reason: ShedReason,
        /// Fleet cycle of the decision.
        at: u64,
    },
    /// In flight between devices: its batch snapshot sits in the
    /// pending-migration queue waiting for a compatible spare, and keeps the
    /// batch's `started_at` as the timeout base. Retries are untouched —
    /// migration is not a failure of the request.
    Migrating,
}

gpu_sim::impl_snap_enum!(RequestState {
    Queued { not_before } = 0,
    Running = 1,
    Done { finished_at } = 2,
    Shed { reason, at } = 3,
    Migrating = 4,
});

/// One tenant request, from arrival to a terminal state. Its id is its
/// index in the fleet's request table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Tenant index (into the fleet config's tenant list).
    pub tenant: usize,
    /// Per-tenant sequence number (from the arrival stream).
    pub seq: u64,
    /// Fleet cycle of arrival.
    pub arrived_at: u64,
    /// Retries consumed so far (timeouts and device failures).
    pub retries: u32,
    /// Current lifecycle state.
    pub state: RequestState,
}

gpu_sim::impl_snap_struct!(Request { tenant, seq, arrived_at, retries, state });

impl Request {
    /// Whether the request reached a terminal state (done or shed).
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, RequestState::Done { .. } | RequestState::Shed { .. })
    }

    /// Completion latency in fleet cycles, if completed.
    pub fn latency(&self) -> Option<u64> {
        match self.state {
            RequestState::Done { finished_at } => Some(finished_at - self.arrived_at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::snap::{decode_from_slice, encode_to_vec};

    #[test]
    fn request_states_round_trip() {
        let states = [
            RequestState::Queued { not_before: 7 },
            RequestState::Running,
            RequestState::Done { finished_at: 9_000 },
            RequestState::Shed { reason: ShedReason::Overload, at: 5_000 },
            RequestState::Migrating,
        ];
        for state in states {
            let req = Request { tenant: 0, seq: 2, arrived_at: 100, retries: 1, state };
            let back: Request = decode_from_slice(&encode_to_vec(&req)).expect("codec");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn latency_only_for_completed() {
        let mut req = Request {
            tenant: 0,
            seq: 0,
            arrived_at: 1_000,
            retries: 0,
            state: RequestState::Queued { not_before: 0 },
        };
        assert_eq!(req.latency(), None);
        assert!(!req.is_terminal());
        req.state = RequestState::Done { finished_at: 5_500 };
        assert_eq!(req.latency(), Some(4_500));
        assert!(req.is_terminal());
    }

    #[test]
    fn shed_reasons_render_stably() {
        assert_eq!(ShedReason::RetriesExhausted.to_string(), "retries-exhausted");
        assert_eq!(ShedReason::Admission.to_string(), "admission");
    }
}
