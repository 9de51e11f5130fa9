//! Runtime statistics: everything the evaluation harness reads.

use vampos_sim::Nanos;

/// One downtime window recorded by the reboot engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowntimeWindow {
    /// The rebooted component, or `"*"` for a full reboot.
    pub component: String,
    /// Window start (virtual time).
    pub start: Nanos,
    /// Window end.
    pub end: Nanos,
}

impl DowntimeWindow {
    /// Window length.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// Counters and timings collected by a running [`System`](crate::System).
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Message hops performed (push + pull pairs).
    pub msg_hops: u64,
    /// Context switches charged by the scheduler.
    pub ctx_switches: u64,
    /// PKRU writes (protection-domain switches).
    pub mpk_switches: u64,
    /// Wild writes the MPK check denied (isolation violations caught).
    pub mpk_violations: u64,
    /// Dependency-aware dispatches whose target was *not* in the caller's
    /// declared dependency set (the scheduler falls back to a full scan).
    pub das_mispredicts: u64,
    /// Log entries appended across all components.
    pub log_appended: u64,
    /// Log entries removed by shrinking across all components.
    pub log_removed: u64,
    /// Component failures detected.
    pub failures: u64,
    /// Component reboots performed.
    pub component_reboots: u64,
    /// Full (whole-application) reboots performed.
    pub full_reboots: u64,
    /// Log entries replayed during restorations.
    pub replayed_entries: u64,
    /// Downtime windows, in order.
    pub downtime: Vec<DowntimeWindow>,
    /// Calls that were retried after an in-line recovery.
    pub recovered_calls: u64,
    /// Failures the detector observed but did not act on (false-negative
    /// windows armed by chaos fault injection).
    pub missed_detections: u64,
    /// Detector firings with no underlying failure (false positives armed
    /// by chaos fault injection); each one triggers a needless reboot.
    pub spurious_detections: u64,
    /// Multi-version swaps performed after recurring failures.
    pub version_swaps: u64,
    /// Live component updates performed.
    pub component_updates: u64,
}

impl SystemStats {
    /// Total downtime across all windows.
    pub fn total_downtime(&self) -> Nanos {
        self.downtime.iter().map(DowntimeWindow::duration).sum()
    }

    /// Net live log entries (appended − removed).
    pub fn live_log_entries(&self) -> i64 {
        self.log_appended as i64 - self.log_removed as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_sums_windows() {
        let mut s = SystemStats::default();
        s.downtime.push(DowntimeWindow {
            component: "vfs".into(),
            start: Nanos::from_millis(10),
            end: Nanos::from_millis(15),
        });
        s.downtime.push(DowntimeWindow {
            component: "*".into(),
            start: Nanos::from_millis(100),
            end: Nanos::from_millis(400),
        });
        assert_eq!(s.total_downtime(), Nanos::from_millis(305));
    }

    #[test]
    fn live_log_entries_subtracts_removed() {
        let s = SystemStats {
            log_appended: 10,
            log_removed: 4,
            ..SystemStats::default()
        };
        assert_eq!(s.live_log_entries(), 6);
    }
}
