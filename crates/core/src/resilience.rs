//! Extensions beyond the paper's prototype, implementing the §VIII
//! discussion items:
//!
//! * **Graceful degradation** — "even when VampOS fails to recover from a
//!   component failure, partial recovery can still be achieved if the
//!   \[application\] and file-system-related components are undamaged": with
//!   [`SystemBuilder::graceful_degradation`](crate::SystemBuilder) enabled,
//!   an unrecoverable component is *condemned* (permanently down) instead of
//!   fail-stopping the whole system, so the application can e.g. flush its
//!   in-memory state to storage through the surviving components.
//! * **Multi-version components** — "when a component fails, VampOS could
//!   insert a different version of the component, whose functionalities and
//!   interfaces are the same": registered alternates are swapped in when a
//!   failure recurs after recovery (a deterministic bug in the original
//!   code), restored from the same log, and the call is re-executed once
//!   more.
//! * **Reboots for component updates** — [`System::update_component`]
//!   replaces a component's implementation at runtime using the same
//!   restoration machinery, "without interfering with the running
//!   application layer".
//! * **Aging-driven rejuvenation** — [`System::aging_report`] exposes each
//!   component's accumulated software aging and
//!   [`System::rejuvenate_aged`] reboots exactly the components whose leak
//!   volume crossed a threshold.

use vampos_telemetry::RecoveryPhase;
use vampos_ukernel::{ComponentBox, OsError};

use crate::reboot::RebootOutcome;
use crate::runtime::System;

/// One component's software-aging summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingEntry {
    /// Component name.
    pub component: String,
    /// Heap bytes lost to leaks since the last reboot.
    pub leaked_bytes: u64,
    /// Leaked descriptors since the last reboot.
    pub descriptor_leaks: u64,
    /// External heap fragmentation in `[0, 1]`.
    pub fragmentation: f64,
    /// Times this component has been rejuvenated.
    pub rejuvenations: u64,
}

impl System {
    /// Swaps in a fresh implementation for `component` — either a
    /// registered alternate (multi-version recovery) or an explicit update
    /// — and restores its state from the function log and runtime extract.
    pub(crate) fn swap_component(
        &mut self,
        tid: usize,
        mut replacement: ComponentBox,
    ) -> Result<RebootOutcome, OsError> {
        let name = self.slots[tid].name.clone();
        if replacement.descriptor().name().as_str() != name {
            return Err(OsError::Io(format!(
                "replacement component is named {}, expected {name}",
                replacement.descriptor().name()
            )));
        }
        let start = self.clock.now();
        // Multi-version recovery stashes its detection context like a
        // reboot; a plain update has none.
        let pending = self.pending_recovery.take();
        let trigger = pending.as_ref().map(|_| "version-swap").unwrap_or("update");
        let span_start = pending.as_ref().map(|p| p.detect_start).unwrap_or(start);
        let detect_end = pending.as_ref().map(|p| p.detect_end).unwrap_or(start);
        self.emit(|c| c.recovery_begin(&name, trigger, span_start));
        self.slots[tid].reboot_attempts += 1;
        self.emit(|c| {
            c.recovery_phase(&name, RecoveryPhase::FailureDetect, span_start, detect_end)
        });
        self.slots[tid].up = false;

        // The old implementation's boot checkpoint does not describe the
        // new code's memory image; the replacement boots from its own
        // pristine state and re-earns a checkpoint.
        let old = match self.slots[tid].comp.take() {
            Some(old) => old,
            None => {
                let err = OsError::Io(format!("{name} busy during swap"));
                let at = self.clock.now();
                let detail = err.to_string();
                self.emit(|c| c.recovery_abort(&name, at, &detail));
                return Err(err);
            }
        };
        let extract = old.extract_runtime();
        drop(old);

        replacement.reset();
        self.clock.advance(self.costs.thread_spawn);
        self.set_descriptor(tid, replacement.descriptor().clone());
        self.slots[tid].boot_snapshot = None;

        // Encapsulated restoration against the new implementation.
        let replay_start = self.clock.now();
        let replayed = match self.replay_log(tid, &mut replacement, true) {
            Ok(replayed) => replayed,
            Err(err) => {
                let at = self.clock.now();
                let detail = err.to_string();
                self.emit(|c| c.recovery_abort(&name, at, &detail));
                return Err(err);
            }
        };
        let replay_end = self.clock.now();
        self.emit(|c| c.recovery_phase(&name, RecoveryPhase::LogReplay, replay_start, replay_end));
        if let Some(data) = extract {
            if let Err(e) = replacement.restore_runtime(data) {
                let at = self.clock.now();
                let detail = e.to_string();
                self.emit(|c| c.recovery_abort(&name, at, &detail));
                return Err(e);
            }
        }
        replacement.finish_replay();

        // Capture the replacement's own boot-phase checkpoint for future
        // (regular) reboots.
        if self.slots[tid].desc.uses_checkpoint_init() {
            let snap = replacement.arena_mut().snapshot();
            self.clock
                .advance(self.costs.snapshot_capture(snap.byte_len()));
            self.slots[tid].boot_snapshot = Some(snap);
        }

        self.slots[tid].comp = Some(replacement);
        self.slots[tid].up = true;
        self.slots[tid].reboots += 1;
        let end = self.clock.now();
        self.emit(|c| c.recovery_phase(&name, RecoveryPhase::Resume, replay_end, end));
        self.stats.downtime.push(crate::stats::DowntimeWindow {
            component: name.clone(),
            start,
            end,
        });
        self.emit(|c| c.recovery_end(&name, end, replayed, 0));
        Ok(RebootOutcome {
            component: self.slots[tid].name.clone(),
            downtime: end.saturating_sub(start),
            replayed,
            snapshot_bytes: 0,
        })
    }

    /// Live-updates `component` to a new implementation (§VIII "Reboots for
    /// Component Updates"): the replacement must expose the same interface
    /// and name; its state is restored from the function log and runtime
    /// extract, so the application keeps running across the update.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`], name mismatches, or
    /// [`OsError::ReplayMismatch`] when the new implementation does not
    /// reproduce the logged behaviour.
    pub fn update_component(
        &mut self,
        component: &str,
        replacement: ComponentBox,
    ) -> Result<RebootOutcome, OsError> {
        let tid = self
            .slot_index(component)
            .ok_or_else(|| OsError::UnknownComponent(component.to_owned()))?;
        let outcome = self.swap_component(tid, replacement)?;
        self.stats.component_updates += 1;
        Ok(outcome)
    }

    /// Components condemned by graceful degradation (empty when healthy).
    pub fn condemned_components(&self) -> Vec<String> {
        self.slots
            .iter()
            .filter(|s| s.condemned)
            .map(|s| s.name.clone())
            .collect()
    }

    /// True when the system is running degraded (some component condemned
    /// but the rest still serving).
    pub fn is_degraded(&self) -> bool {
        self.slots.iter().any(|s| s.condemned)
    }

    /// Per-component software-aging report.
    pub fn aging_report(&self) -> Vec<AgingEntry> {
        self.slots
            .iter()
            .filter_map(|s| {
                let comp = s.comp.as_ref()?;
                let arena = comp.arena();
                Some(AgingEntry {
                    component: s.name.clone(),
                    leaked_bytes: arena.aging().leaked_bytes(),
                    descriptor_leaks: arena.aging().descriptor_leaks(),
                    fragmentation: arena.allocator().fragmentation(),
                    rejuvenations: arena.aging().rejuvenations(),
                })
            })
            .collect()
    }

    /// Proactively reboots every rebootable component whose leaked heap
    /// exceeds `leak_threshold_bytes` — aging-driven rejuvenation.
    ///
    /// # Errors
    ///
    /// Stops at the first failed reboot.
    pub fn rejuvenate_aged(
        &mut self,
        leak_threshold_bytes: u64,
    ) -> Result<Vec<RebootOutcome>, OsError> {
        let aged: Vec<String> = self
            .aging_report()
            .into_iter()
            .filter(|e| e.leaked_bytes >= leak_threshold_bytes.max(1))
            .map(|e| e.component)
            .collect();
        let mut outcomes = Vec::new();
        for name in aged {
            let idx = self.slot_index(&name).expect("a linked name");
            if self.slots[idx].desc.is_rebootable() {
                outcomes.push(self.reboot_index(idx)?);
            }
        }
        Ok(outcomes)
    }
}
