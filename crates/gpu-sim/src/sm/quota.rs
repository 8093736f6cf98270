//! The EWS quota gate: epoch grants with carry semantics, lazy mid-epoch
//! refills and the Rollover-Time priority gate. The one injected fault an
//! SM carries, the `DeviceWedge` scheduler freeze, lives here too; the gate
//! itself reads no fault state.

use crate::types::KernelId;
use crate::MAX_KERNELS;

use super::{slots, Sm};

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
        self.stale_gate();
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
        #[cfg(test)]
        if self.gate.stale_quota {
            return;
        }
        self.stale_gate();
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
        self.stale_gate();
    }

    /// Enables elastic-epoch mid-epoch restarts (all gated kernels are
    /// replenished when every one of them is exhausted).
    pub fn set_elastic(&mut self, on: bool) {
        self.assert_awake();
        self.elastic = on;
        self.stale_gate();
    }

    /// Enables the Rollover-Time priority gate: non-QoS kernels may only
    /// issue when every gated QoS kernel has exhausted its quota.
    pub fn set_priority_block(&mut self, on: bool) {
        self.assert_awake();
        self.priority_block = on;
        self.stale_gate();
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
                self.stale_gate();
                return self.quota[k] > 0;
            }
            return false;
        }
        if !self.is_qos[k] && self.refill[k] > 0 && !self.any_qos_quota_positive() {
            // Naïve/Rollover mid-epoch rule: once every QoS kernel reached
            // its per-epoch goal, non-QoS kernels keep running (§3.4.1).
            self.quota[k] += self.refill[k];
            self.quota_credit[k] += self.refill[k];
            self.stale_gate();
            return self.quota[k] > 0;
        }
        false
    }

    /// Whether a warp of kernel `k` that is otherwise issuable is *inert*:
    /// [`Sm::quota_allows`] would return `false` without mutating any state,
    /// and the scavenger can never pick it. Inert warps generate no events,
    /// so they do not keep the SM awake.
    ///
    /// Every input here is a flag (gates, QoS flags, elastic mode, the
    /// priority gate) or the sign of a quota counter, and only the writes
    /// that call [`Sm::stale_gate`] can flip one: the controller's setters,
    /// which never reach a sleeping SM without waking it first, the lazy
    /// refills of [`Sm::quota_allows`], and the issue that takes a quota from
    /// positive to exhausted (any other issue leaves a sign as it was). So
    /// the set [`Sm::inert_set`] cached holds until one of those writes
    /// (DESIGN.md §3.1). Inside a tick the refills raise counters, so
    /// inertness can only spread (a raise never frees a kernel from the
    /// priority gate and fires for no QoS kernel that was inert), and a
    /// kernel turned inert since the evaluation is denied by
    /// `quota_allows` like any other; only the exhausting issue can *end*
    /// inertness (the priority gate opens, or an elastic restart falls due),
    /// which is why `tick` evaluates the set again after each such issue.
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

    /// The kernels [`Sm::quota_inert`] holds for, as a kernel mask (bit `k`
    /// for kernel `k`). Read through the cache, [`Sm::inert_set`]; only
    /// `next_event`, which cannot fill it, evaluates a stale set itself.
    /// Callers on the sleep path ask [`Sm::ungated`] first: on an ungated SM
    /// the set is empty.
    pub(super) fn inert_kernels(&self) -> u64 {
        (0..MAX_KERNELS).filter(|&k| self.quota_inert(k)).fold(0, |set, k| set | 1 << k)
    }

    /// The inert set, evaluated only if a write since the last evaluation
    /// could have changed it.
    #[inline]
    pub(super) fn inert_set(&mut self) -> u64 {
        if !self.gate.fresh {
            self.gate.inert = self.inert_kernels();
            self.gate.fresh = true;
            self.gate.evals += 1;
        }
        self.gate.inert
    }

    /// Marks the cached inert set stale: a flag or the sign of a quota
    /// counter may have changed.
    #[inline]
    pub(super) fn stale_gate(&mut self) {
        self.gate.fresh = false;
    }

    /// The warp slots owned by the kernels of the kernel mask `inert`.
    #[inline]
    pub(super) fn inert_bits(&self, inert: u64) -> u64 {
        slots(inert).fold(0, |bits, k| bits | self.warps.kernel_mask[k].0)
    }

    /// Injected `DeviceWedge` fault, applied to every SM at once: the SM
    /// stops issuing forever (in-flight context transfers still retire).
    pub(crate) fn freeze_schedulers(&mut self) {
        self.assert_awake();
        self.sched_frozen = true;
    }

    /// Thaws a wedged SM's schedulers. Used when a fault plan is installed
    /// ([`crate::Gpu::set_fault_plan`]): the freeze models sick hardware,
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
        self.stale_gate();
    }
}
