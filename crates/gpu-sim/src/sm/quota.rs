//! The EWS quota gate: epoch grants with carry semantics, lazy mid-epoch
//! refills and the Rollover-Time priority gate. The one injected fault an
//! SM carries, the `DeviceWedge` scheduler freeze, lives here too; the gate
//! itself reads no fault state.

use crate::types::KernelId;
use crate::MAX_KERNELS;

use super::Sm;

/// How an epoch-boundary quota assignment treats the previous counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaCarry {
    /// Discard unused (positive) quota, keep over-consumption debt:
    /// `C ← alloc + min(C, 0)` (Naïve/Elastic behaviour, and non-QoS kernels
    /// under every scheme — Fig. 4a/4c).
    DiscardSurplus,
    /// Keep debt and the unused quota *from the last epoch* (Rollover,
    /// Fig. 4c): `C ← alloc + min(C, alloc)`. Capping the carried surplus at
    /// one allocation keeps a long TLP-starved transient from stockpiling
    /// epochs' worth of quota that would later let the kernel run far past
    /// its goal.
    Full,
    /// Fresh counter every epoch: `C ← alloc`. Used for non-QoS kernels,
    /// whose work-conserving slack issues would otherwise accumulate
    /// unbounded debt that locks them out of the normal issue path.
    Reset,
}

impl Sm {
    /// Every write below changes what a sleeping SM's horizon and deferred
    /// `quota_blocked` replay were computed from, and none carries the cycle
    /// [`Sm::catch_up`] needs — so the machine wakes every SM before it lets
    /// a controller, a fault or a restore at them (DESIGN.md §3.1).
    #[inline]
    fn assert_awake(&self) {
        assert!(self.sleep.is_none(), "quota or fault write on sleeping {}", self.id);
    }

    /// Enables or disables quota gating for kernel `k` on this SM.
    pub fn set_gated(&mut self, k: KernelId, gated: bool) {
        self.assert_awake();
        self.gated[k.index()] = gated;
    }

    /// Assigns the epoch quota for kernel `k`.
    ///
    /// `carry` selects the paper's carry-over semantics, and `refill` is the
    /// amount added by mid-epoch refills (non-QoS top-ups, elastic restarts).
    pub fn set_epoch_quota(&mut self, k: KernelId, alloc: i64, carry: QuotaCarry, refill: i64) {
        self.assert_awake();
        let i = k.index();
        let old = self.quota[i];
        self.quota[i] = match carry {
            QuotaCarry::DiscardSurplus => alloc + old.min(0),
            QuotaCarry::Full => alloc + old.min(alloc),
            QuotaCarry::Reset => alloc,
        };
        self.quota_credit[i] += self.quota[i] - old;
        self.refill[i] = refill;
    }

    /// Current quota counter for kernel `k`.
    pub fn quota(&self, k: KernelId) -> i64 {
        self.quota[k.index()]
    }

    /// Marks kernel `k` as a QoS kernel (affects mid-epoch refill rules and
    /// the Rollover-Time priority gate).
    pub fn set_qos_kernel(&mut self, k: KernelId, qos: bool) {
        self.assert_awake();
        self.is_qos[k.index()] = qos;
    }

    /// Enables elastic-epoch mid-epoch restarts (all gated kernels are
    /// replenished when every one of them is exhausted).
    pub fn set_elastic(&mut self, on: bool) {
        self.assert_awake();
        self.elastic = on;
    }

    /// Enables the Rollover-Time priority gate: non-QoS kernels may only
    /// issue when every gated QoS kernel has exhausted its quota.
    pub fn set_priority_block(&mut self, on: bool) {
        self.assert_awake();
        self.priority_block = on;
    }

    #[inline]
    pub(super) fn any_qos_quota_positive(&self) -> bool {
        (0..MAX_KERNELS).any(|i| self.gated[i] && self.is_qos[i] && self.quota[i] > 0)
    }

    #[inline]
    fn all_gated_exhausted(&self) -> bool {
        (0..MAX_KERNELS).all(|i| !self.gated[i] || self.quota[i] <= 0)
    }

    /// Quota admission check with lazy mid-epoch refills.
    pub(super) fn quota_allows(&mut self, k: usize) -> bool {
        if self.priority_block && !self.is_qos[k] && self.any_qos_quota_positive() {
            return false;
        }
        if !self.gated[k] {
            return true;
        }
        if self.quota[k] > 0 {
            return true;
        }
        if self.elastic {
            // Elastic epoch: a new epoch starts early once *all* kernels
            // have consumed their quotas (Fig. 4b), carrying debt.
            if self.all_gated_exhausted() {
                for i in 0..MAX_KERNELS {
                    if self.gated[i] {
                        self.quota[i] += self.refill[i];
                        self.quota_credit[i] += self.refill[i];
                    }
                }
                return self.quota[k] > 0;
            }
            return false;
        }
        if !self.is_qos[k] && self.refill[k] > 0 && !self.any_qos_quota_positive() {
            // Naïve/Rollover mid-epoch rule: once every QoS kernel reached
            // its per-epoch goal, non-QoS kernels keep running (§3.4.1).
            self.quota[k] += self.refill[k];
            self.quota_credit[k] += self.refill[k];
            return self.quota[k] > 0;
        }
        false
    }

    /// Whether a warp of kernel `k` that is otherwise issuable is *inert*:
    /// [`Sm::quota_allows`] would return `false` without mutating any state,
    /// and the scavenger can never pick it. Inert warps generate no events,
    /// so they do not keep the SM awake.
    ///
    /// Every input here (quota counters, gates, QoS flags, elastic mode) only
    /// changes through this SM's own issues or epoch-boundary controller
    /// writes — neither of which reaches a sleeping SM without waking it
    /// first — so inertness computed when a sleep ends held throughout it.
    /// Inside a tick only the counters move, and every clause below reads a
    /// counter's sign. The lazy refills of [`Sm::quota_allows`] raise
    /// counters: inertness can only spread (a raise never frees a kernel from
    /// the priority gate and fires for no QoS kernel that was inert). An issue lowers one, and only the issue
    /// that takes a quota from positive to exhausted can *end* inertness
    /// (the priority gate opens, or an elastic restart falls due). So
    /// `tick` evaluates the set once and again after each such issue
    /// (DESIGN.md §3.1).
    fn quota_inert(&self, k: usize) -> bool {
        if self.priority_block && !self.is_qos[k] && self.any_qos_quota_positive() {
            return true;
        }
        if !self.gated[k] || self.quota[k] > 0 {
            return false;
        }
        if !self.is_qos[k] {
            // Exhausted non-QoS kernels stay live: scavenging or the §3.4.1
            // mid-epoch refill may let them issue on any cycle.
            return false;
        }
        // QoS, gated, exhausted: pure-false unless an elastic restart would
        // refill every gated kernel the moment quota_allows is consulted.
        !(self.elastic && self.all_gated_exhausted())
    }

    /// No kernel gated and the priority gate off: [`Sm::quota_allows`] is
    /// `true` for every kernel and mutates nothing, no kernel is inert, and
    /// the scavenger (which only admits *gated* exhausted kernels) cannot
    /// match. No issue flips a gate, so this holds for a whole tick.
    #[inline]
    pub(super) fn ungated(&self) -> bool {
        !self.priority_block && !self.gated.iter().any(|&g| g)
    }

    /// [`Sm::quota_inert`] for every kernel slot at once. Callers on the
    /// sleep path ask [`Sm::ungated`] first: on an ungated SM every entry is
    /// `false`.
    pub(super) fn inert_kernels(&self) -> [bool; MAX_KERNELS] {
        std::array::from_fn(|k| self.quota_inert(k))
    }

    /// The warp slots owned by `inert` kernels.
    #[inline]
    pub(super) fn inert_bits(&self, inert: &[bool; MAX_KERNELS]) -> u64 {
        (0..MAX_KERNELS).filter(|&k| inert[k]).fold(0, |bits, k| bits | self.warps.kernel_mask[k].0)
    }

    /// Injected `DeviceWedge` fault, applied to every SM at once: the SM
    /// stops issuing forever (in-flight context transfers still retire).
    pub(crate) fn freeze_schedulers(&mut self) {
        self.assert_awake();
        self.sched_frozen = true;
    }

    /// Thaws a wedged SM's schedulers. Used by cross-device restore
    /// ([`crate::Gpu::restore_compat`]): the freeze models sick hardware,
    /// not workload state, so a batch migrating onto healthy silicon must
    /// not carry it along. Quota counters and gates are left untouched —
    /// they are workload state the controller owns.
    pub(crate) fn clear_fault_effects(&mut self) {
        self.assert_awake();
        self.sched_frozen = false;
    }

    /// Whether kernel `k` is quota-gated on this SM.
    pub fn is_gated(&self, k: KernelId) -> bool {
        self.gated[k.index()]
    }

    /// Test-only backdoor: mutates the quota counter *without* going
    /// through a ledger channel, to prove the audit catches stray writes.
    #[cfg(test)]
    pub(crate) fn corrupt_quota_for_test(&mut self, k: KernelId, delta: i64) {
        self.assert_awake();
        self.quota[k.index()] += delta;
    }
}
