//! Live-migration bookkeeping: pending migrations awaiting a compatible
//! spare, and the record of completed migrations.
//!
//! The mechanism (DESIGN.md §16): every busy batch keeps a device snapshot
//! taken at a tick boundary. When its device leaves service — silently
//! lost, wedged (watchdog-classified), drained for a planned rebalance, or
//! preempted to free capacity for guaranteed work under shed pressure — the
//! surviving requests and the snapshot enter the fleet's pending-migration
//! queue as a [`PendingMigration`]. Placement services that queue first
//! each tick, restoring the blob onto an idle device of the same migration
//! class ([`gpu_sim::Gpu::restore`]) and installing that device's fault plan
//! ([`gpu_sim::Gpu::set_fault_plan`]); the batch resumes with every
//! retry counter untouched. A migration that cannot find a spare within the
//! configured patience falls back to the bounded-retry path, so the queue
//! can never hold work forever.

/// Why a batch left its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReason {
    /// The device vanished mid-tick ([`gpu_sim::SimError::DeviceLost`]);
    /// the batch resumes from its last checkpoint.
    DeviceLost,
    /// The device wedged and the watchdog classified it; the frozen state
    /// is untrustworthy, so the batch resumes from its last checkpoint.
    DeviceWedged,
    /// A planned drain (maintenance/rebalance); the batch was snapshotted
    /// fresh at the tick boundary, so no progress is lost.
    Drain,
    /// Preempted under shed pressure to free a device for guaranteed work;
    /// snapshotted fresh, no progress lost.
    ShedPressure,
}

impl std::fmt::Display for MigrationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MigrationReason::DeviceLost => "device-lost",
            MigrationReason::DeviceWedged => "device-wedged",
            MigrationReason::Drain => "drain",
            MigrationReason::ShedPressure => "shed-pressure",
        })
    }
}

gpu_sim::impl_snap_enum!(MigrationReason {
    DeviceLost = 0,
    DeviceWedged = 1,
    Drain = 2,
    ShedPressure = 3,
});

/// A batch waiting for a compatible spare, with everything needed to
/// resume it: the slot→request map, the snapshot blob, and the timing
/// context that keeps timeout accounting exact.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingMigration {
    /// Request ids per original kernel slot (slot order preserved so the
    /// restored device's kernel slots line up).
    pub slots: Vec<u64>,
    /// Which slots were still live when the batch left its device. Slots
    /// that completed after the checkpoint was taken are inactive here and
    /// get gated on the target so finished work never re-runs.
    pub active: Vec<bool>,
    /// Fleet cycle the batch was originally placed — the timeout base its
    /// requests keep across the migration.
    pub started_at: u64,
    /// The serialized [`gpu_sim::SnapshotBlob`]. Its header's configuration
    /// fingerprint is the source device's migration class (only a device
    /// whose class fingerprints equal may receive it), and the restored
    /// machine's clock is what the target's fault plan translates through.
    pub blob: Vec<u8>,
    /// Device the batch left.
    pub from_device: u32,
    /// Why it left.
    pub reason: MigrationReason,
    /// Fleet cycle it entered the pending queue (patience clock).
    pub enqueued_at: u64,
}

gpu_sim::impl_snap_struct!(PendingMigration {
    slots,
    active,
    started_at,
    blob,
    from_device,
    reason,
    enqueued_at,
});

impl PendingMigration {
    /// Request ids still live in this migration.
    pub fn live_requests(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().zip(&self.active).filter(|(_, live)| **live).map(|(id, _)| *id as usize)
    }
}

/// One completed migration, kept for reports and trace export (each live
/// request becomes a migration span on its tenant's Perfetto track).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Device the batch left.
    pub from_device: u32,
    /// Device it resumed on.
    pub to_device: u32,
    /// Why it moved.
    pub reason: MigrationReason,
    /// Live request ids that resumed.
    pub requests: Vec<u64>,
    /// Fleet cycle the batch entered the pending queue.
    pub enqueued_at: u64,
    /// Fleet cycle it resumed on the target.
    pub restored_at: u64,
}

gpu_sim::impl_snap_struct!(MigrationRecord {
    from_device,
    to_device,
    reason,
    requests,
    enqueued_at,
    restored_at,
});

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::snap::{decode_from_slice, encode_to_vec};

    #[test]
    fn pending_migration_round_trips_and_filters_live_slots() {
        let pm = PendingMigration {
            slots: vec![4, 9, 11],
            active: vec![true, false, true],
            started_at: 8_000,
            blob: vec![1, 2, 3, 4],
            from_device: 2,
            reason: MigrationReason::DeviceWedged,
            enqueued_at: 20_000,
        };
        assert_eq!(pm.live_requests().collect::<Vec<_>>(), vec![4, 11]);
        let back: PendingMigration =
            decode_from_slice(&encode_to_vec(&pm)).expect("codec round trip");
        assert_eq!(back, pm);
    }

    #[test]
    fn migration_reasons_round_trip_and_render() {
        for (reason, label) in [
            (MigrationReason::DeviceLost, "device-lost"),
            (MigrationReason::DeviceWedged, "device-wedged"),
            (MigrationReason::Drain, "drain"),
            (MigrationReason::ShedPressure, "shed-pressure"),
        ] {
            assert_eq!(reason.to_string(), label);
            let back: MigrationReason =
                decode_from_slice(&encode_to_vec(&reason)).expect("codec round trip");
            assert_eq!(back, reason);
        }
    }
}
