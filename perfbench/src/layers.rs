//! Deterministic per-layer counters read from the simulator's public
//! accessors: core [`vampos_core::SystemStats`] and the host plane's 9P
//! server and network peer, summed over every simulated unikernel.

use vampos_core::System;

/// Counter totals over a set of systems.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Cross-component message hops.
    pub msg_hops: u64,
    /// PKRU writes (protection-domain switches).
    pub mpk_switches: u64,
    /// Scheduler context switches.
    pub ctx_switches: u64,
    /// Function-log entries appended.
    pub log_appended: u64,
    /// Log entries replayed by restorations.
    pub replayed_entries: u64,
    /// Component reboots.
    pub component_reboots: u64,
    /// Calls retried after an in-line recovery.
    pub recovered_calls: u64,
    /// 9P requests the host served.
    pub ninep_rpcs: u64,
    /// 9P fsyncs the host served.
    pub fsyncs: u64,
    /// Network frames the guests sent to the host.
    pub guest_frames: u64,
    /// Payload bytes of those frames.
    pub guest_bytes: u64,
}

impl LayerCounts {
    /// Sums the counters of `systems`.
    pub fn of(systems: &[&System]) -> LayerCounts {
        let mut c = LayerCounts::default();
        for sys in systems {
            let s = sys.stats();
            c.msg_hops += s.msg_hops;
            c.mpk_switches += s.mpk_switches;
            c.ctx_switches += s.ctx_switches;
            c.log_appended += s.log_appended;
            c.replayed_entries += s.replayed_entries;
            c.component_reboots += s.component_reboots;
            c.recovered_calls += s.recovered_calls;
            sys.host().with(|w| {
                c.ninep_rpcs += w.ninep().request_count();
                c.fsyncs += w.ninep().fsync_count();
                c.guest_frames += w.network().frames_from_guest();
                c.guest_bytes += w.network().bytes_from_guest();
            });
        }
        c
    }

    /// The counts accumulated between `before` and `self`.
    pub fn since(&self, before: &LayerCounts) -> LayerCounts {
        LayerCounts {
            msg_hops: self.msg_hops - before.msg_hops,
            mpk_switches: self.mpk_switches - before.mpk_switches,
            ctx_switches: self.ctx_switches - before.ctx_switches,
            log_appended: self.log_appended - before.log_appended,
            replayed_entries: self.replayed_entries - before.replayed_entries,
            component_reboots: self.component_reboots - before.component_reboots,
            recovered_calls: self.recovered_calls - before.recovered_calls,
            ninep_rpcs: self.ninep_rpcs - before.ninep_rpcs,
            fsyncs: self.fsyncs - before.fsyncs,
            guest_frames: self.guest_frames - before.guest_frames,
            guest_bytes: self.guest_bytes - before.guest_bytes,
        }
    }
}
