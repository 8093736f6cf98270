//! Pluggable placement policies: which idle device a queued request lands
//! on.
//!
//! The fleet consults a [`PlacementPolicy`] object for every eligible queued
//! request each tick, handing it a read-only [`PlacementCtx`] describing the
//! candidate devices (free kernel slots, free memory by working-set
//! estimate, class, load history) and fleet-level pressure. The policy only
//! *suggests* a device; the fleet re-validates capacity deterministically,
//! so a buggy policy can degrade placement quality but never oversubscribe
//! a device or corrupt accounting.
//!
//! [`resolve`] maps each [`Placement`] name to its policy object.

use std::fmt;
use std::sync::Arc;

use crate::config::Placement;

/// One candidate device, as the policy sees it. Views are pre-filtered to
/// healthy devices with at least one free kernel slot.
#[derive(Debug, Clone)]
pub struct DeviceView {
    /// Fleet-wide device index.
    pub device: u32,
    /// Index into `FleetConfig::classes`.
    pub class: usize,
    /// Kernel slots still free on this device this tick.
    pub free_slots: usize,
    /// Device memory not yet claimed by working-set estimates, in bytes.
    pub free_mem_bytes: u64,
    /// Requests already assigned to this device this tick (0 ⇒ still idle).
    pub assigned: usize,
    /// Batches this device has started over its lifetime — a load/wear
    /// signal for queue-aware policies.
    pub batches: u64,
}

/// One queued request, as the policy sees it.
#[derive(Debug, Clone, Copy)]
pub struct RequestView {
    /// Fleet-wide request id.
    pub id: usize,
    /// Owning tenant index.
    pub tenant: usize,
    /// Whether the tenant holds a guaranteed (SLO-backed) contract.
    pub guaranteed: bool,
    /// Working-set estimate for the request, in bytes (measured EWMA, not
    /// the declared reservation).
    pub mem_bytes: u64,
    /// Cycles the request has waited since arrival.
    pub queued_for: u64,
}

/// Fleet-level pressure context for one placement round.
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// Current fleet cycle.
    pub now: u64,
    /// Requests waiting in the queue (including the one being placed).
    pub queue_depth: usize,
    /// Projected occupancy over the admission horizon, in permille.
    pub load_permille: u64,
    /// Candidate devices, ascending by device index.
    pub devices: &'a [DeviceView],
}

/// A placement policy object. Implementations must be deterministic pure
/// functions of their inputs — the fleet's replay and snapshot/resume
/// guarantees depend on it.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// Chooses a device for `req`, or `None` to leave it queued this tick.
    /// Returning a device that lacks capacity is safe: the fleet
    /// re-validates and treats it as `None`.
    fn assign(&self, req: &RequestView, ctx: &PlacementCtx<'_>) -> Option<u32>;
}

/// First device (ascending index) with room: fills one device before
/// touching the next.
#[derive(Debug)]
pub struct Binpack;

impl PlacementPolicy for Binpack {
    fn assign(&self, req: &RequestView, ctx: &PlacementCtx<'_>) -> Option<u32> {
        ctx.devices
            .iter()
            .find(|d| d.free_slots > 0 && d.free_mem_bytes >= req.mem_bytes)
            .map(|d| d.device)
    }
}

/// Most free kernel slots wins (ties to the lowest index): spreads load and
/// blast radius across the fleet.
#[derive(Debug)]
pub struct Spread;

impl PlacementPolicy for Spread {
    fn assign(&self, req: &RequestView, ctx: &PlacementCtx<'_>) -> Option<u32> {
        ctx.devices
            .iter()
            .filter(|d| d.free_slots > 0 && d.free_mem_bytes >= req.mem_bytes)
            .max_by(|a, b| a.free_slots.cmp(&b.free_slots).then(b.device.cmp(&a.device)))
            .map(|d| d.device)
    }
}

/// Queue-aware: fewest requests assigned this tick, then fewest lifetime
/// batches (coldest device), then lowest index.
#[derive(Debug)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn assign(&self, req: &RequestView, ctx: &PlacementCtx<'_>) -> Option<u32> {
        ctx.devices
            .iter()
            .filter(|d| d.free_slots > 0 && d.free_mem_bytes >= req.mem_bytes)
            .min_by(|a, b| {
                a.assigned
                    .cmp(&b.assigned)
                    .then(a.batches.cmp(&b.batches))
                    .then(a.device.cmp(&b.device))
            })
            .map(|d| d.device)
    }
}

/// Resolves a [`Placement`] selector to its policy object.
pub fn resolve(placement: &Placement) -> Arc<dyn PlacementPolicy> {
    match placement {
        Placement::Binpack => Arc::new(Binpack),
        Placement::Spread => Arc::new(Spread),
        Placement::LeastLoaded => Arc::new(LeastLoaded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views() -> Vec<DeviceView> {
        vec![
            DeviceView {
                device: 0,
                class: 0,
                free_slots: 1,
                free_mem_bytes: 1 << 20,
                assigned: 3,
                batches: 10,
            },
            DeviceView {
                device: 1,
                class: 0,
                free_slots: 4,
                free_mem_bytes: 1 << 30,
                assigned: 0,
                batches: 2,
            },
            DeviceView {
                device: 2,
                class: 1,
                free_slots: 4,
                free_mem_bytes: 1 << 30,
                assigned: 0,
                batches: 1,
            },
        ]
    }

    fn req(mem: u64) -> RequestView {
        RequestView { id: 0, tenant: 0, guaranteed: false, mem_bytes: mem, queued_for: 0 }
    }

    fn ctx(devices: &[DeviceView]) -> PlacementCtx<'_> {
        PlacementCtx { now: 0, queue_depth: 1, load_permille: 500, devices }
    }

    #[test]
    fn builtins_pick_by_their_own_criterion() {
        let v = views();
        assert_eq!(Binpack.assign(&req(64), &ctx(&v)), Some(0), "binpack fills device 0 first");
        assert_eq!(
            Binpack.assign(&req(2 << 20), &ctx(&v)),
            Some(1),
            "binpack skips devices without memory"
        );
        assert_eq!(Spread.assign(&req(64), &ctx(&v)), Some(1), "spread wants most free slots");
        assert_eq!(
            LeastLoaded.assign(&req(64), &ctx(&v)),
            Some(2),
            "least-loaded breaks the tie toward the coldest device"
        );
        assert_eq!(Spread.assign(&req(u64::MAX), &ctx(&v)), None, "nothing fits");
    }
}
