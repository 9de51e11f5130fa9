//! The reboot engine: component-level reboots with checkpoint-based
//! initialization (§V-E) and encapsulated restoration (§V-B), failure
//! handling with in-line recovery and fail-stop on recurrence (§II-B), and
//! the full-reboot baseline (§II-A).

use std::collections::VecDeque;

use vampos_sim::Nanos;
use vampos_telemetry::RecoveryPhase;
use vampos_ukernel::{ComponentBox, OsError, Value};

use crate::runtime::{Ctx, PendingRecovery, ReplayState, System};
use crate::stats::DowntimeWindow;
use crate::symbols::{ComponentId, FnId};

/// The result of a component-level reboot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebootOutcome {
    /// The rebooted component (composite reboots join names with `+`).
    pub component: String,
    /// Virtual time the reboot occupied.
    pub downtime: Nanos,
    /// Log entries replayed during encapsulated restoration.
    pub replayed: usize,
    /// Bytes of checkpoint snapshot restored.
    pub snapshot_bytes: usize,
}

/// The result of a full (whole-application) reboot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullRebootOutcome {
    /// Virtual time the boot occupied (application state restoration, e.g.
    /// an AOF replay, is charged by the application on top of this).
    pub downtime: Nanos,
    /// Client connections that were reset.
    pub connections_reset: u64,
}

impl System {
    /// Reboots one component (or, if it is merged, its composite group)
    /// while the application and the remaining components keep running.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names,
    /// [`OsError::Unrebootable`] for components whose state is shared with
    /// the host (VIRTIO), [`OsError::ReplayMismatch`] when restoration
    /// cannot reproduce the pre-reboot state (the system then fail-stops).
    pub fn reboot_component(&mut self, name: &str) -> Result<RebootOutcome, OsError> {
        let idx = self
            .slot_index(name)
            .ok_or_else(|| OsError::UnknownComponent(name.to_owned()))?;
        if !self.slots[idx].desc.is_rebootable() {
            return Err(OsError::Unrebootable {
                component: name.to_owned(),
            });
        }
        self.reboot_index(idx)
    }

    /// Reboots a component even if it is marked unrebootable. Exists to
    /// demonstrate §VIII: forcing a VIRTIO reboot desynchronises the
    /// host-shared rings and subsequent I/O fails.
    ///
    /// # Errors
    ///
    /// Same as [`System::reboot_component`], minus the rebootability check.
    pub fn force_reboot_component(&mut self, name: &str) -> Result<RebootOutcome, OsError> {
        let idx = self
            .slot_index(name)
            .ok_or_else(|| OsError::UnknownComponent(name.to_owned()))?;
        self.reboot_index(idx)
    }

    /// Proactively reboots every rebootable component, one at a time —
    /// the software-rejuvenation pattern of §VII-D.
    ///
    /// # Errors
    ///
    /// Stops at the first failed reboot.
    pub fn rejuvenate_all(&mut self) -> Result<Vec<RebootOutcome>, OsError> {
        let names: Vec<String> = self
            .slots
            .iter()
            .filter(|s| s.desc.is_rebootable())
            .map(|s| s.name.clone())
            .collect();
        let mut outcomes = Vec::new();
        let mut done_groups = Vec::new();
        for name in names {
            let idx = self.slot_index(&name).expect("a linked name");
            let group = self.slots[idx].group;
            if done_groups.contains(&group) {
                continue; // composite already rebooted with its leader
            }
            done_groups.push(group);
            outcomes.push(self.reboot_component(&name)?);
        }
        Ok(outcomes)
    }

    pub(crate) fn reboot_index(&mut self, idx: usize) -> Result<RebootOutcome, OsError> {
        // A merged component reboots as a composite: load every member's
        // snapshot and replay each member's log (§V-F).
        let group = self.slots[idx].group;
        let members: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].group == group)
            .collect();
        let label = members
            .iter()
            .map(|&i| self.slots[i].name.as_str())
            .collect::<Vec<_>>()
            .join("+");

        let start = self.clock.now();
        // Failure paths stash their detection context; an explicit reboot
        // (admin / rejuvenation) has none. The recovery span is back-dated
        // to when detection began so downtime reads off the span directly.
        let pending = self.pending_recovery.take();
        let trigger = pending.as_ref().map(|p| p.kind).unwrap_or("admin");
        let span_start = pending.as_ref().map(|p| p.detect_start).unwrap_or(start);
        let detect_end = pending.as_ref().map(|p| p.detect_end).unwrap_or(start);
        self.emit(|c| c.recovery_begin(&label, trigger, span_start));
        for &member in &members {
            self.slots[member].reboot_attempts += 1;
        }
        self.emit(|c| {
            c.recovery_phase(&label, RecoveryPhase::FailureDetect, span_start, detect_end)
        });
        let mut replayed_total = 0usize;
        let mut snapshot_total = 0usize;
        for &member in &members {
            match self.reboot_one(member) {
                Ok((replayed, snap)) => {
                    replayed_total += replayed;
                    snapshot_total += snap;
                }
                Err(e) => {
                    let at = self.clock.now();
                    let detail = e.to_string();
                    self.emit(|c| c.recovery_abort(&label, at, &detail));
                    return Err(e);
                }
            }
        }
        let end = self.clock.now();
        self.stats.component_reboots += 1;
        self.stats.replayed_entries += replayed_total as u64;
        self.stats.downtime.push(DowntimeWindow {
            component: label.clone(),
            start,
            end,
        });
        self.emit(|c| c.recovery_end(&label, end, replayed_total, snapshot_total));
        Ok(RebootOutcome {
            component: label,
            downtime: end.saturating_sub(start),
            replayed: replayed_total,
            snapshot_bytes: snapshot_total,
        })
    }

    /// Reboots a single slot: stop thread → checkpoint restore → respawn →
    /// encapsulated replay → runtime-data restore.
    fn reboot_one(&mut self, idx: usize) -> Result<(usize, usize), OsError> {
        let member_name = self.slots[idx].name.clone();
        let restore_start = self.clock.now();
        self.slots[idx].up = false;
        self.clock.advance(self.costs.ctx_switch); // stop the thread

        let mut comp = self.slots[idx]
            .comp
            .take()
            .ok_or_else(|| OsError::Io(format!("{} busy during reboot", self.slots[idx].name)))?;

        // Corrupted checkpoint bytes (chaos fault injection): the stored
        // boot image fails validation before anything is restored. The
        // slot stays down; only a full reboot recaptures the checkpoint.
        if self.slots[idx].checkpoint_corrupt {
            self.slots[idx].comp = Some(comp);
            return Err(OsError::Io(format!(
                "{member_name} boot checkpoint fails validation (corrupt bytes)"
            )));
        }

        // Runtime-data extraction (§V-B): data replay cannot rebuild.
        let extract = comp.extract_runtime();

        // Checkpoint-based initialization (§V-E): restore the boot-phase
        // memory image instead of running shutdown/boot routines.
        let prior_rejuvenations = comp.arena().aging().rejuvenations();
        comp.reset();
        let mut snapshot_bytes = 0usize;
        if let Some(snap) = &self.slots[idx].boot_snapshot {
            snapshot_bytes = snap.byte_len();
            comp.arena_mut()
                .restore(snap)
                .map_err(|e| OsError::Io(format!("checkpoint restore: {e}")))?;
            self.clock
                .advance(self.costs.snapshot_restore(snapshot_bytes));
            // The boot image predates every rejuvenation; re-establish the
            // cumulative count (each call also clears the aging counters,
            // which the boot image already has at zero).
            for _ in 0..=prior_rejuvenations {
                comp.arena_mut().aging_mut().rejuvenate();
            }
        }

        let restore_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(
                &member_name,
                RecoveryPhase::CheckpointRestore,
                restore_start,
                restore_end,
            )
        });

        // Attach a fresh thread (§V-A).
        self.clock.advance(self.costs.thread_spawn);

        // Reboot-during-reboot (chaos fault injection): a second reboot
        // request preempts this one after the checkpoint phase. The
        // runtime data goes back into the component so the follow-up
        // attempt (which consumes the armed interrupt) can re-extract it;
        // the slot stays down until then.
        if self.reboot_interrupts.remove(&member_name) {
            let restored = match extract {
                Some(data) => comp.restore_runtime(data),
                None => Ok(()),
            };
            self.slots[idx].comp = Some(comp);
            restored?;
            return Err(OsError::Io(format!(
                "reboot of {member_name} interrupted by a second reboot request"
            )));
        }

        // Encapsulated restoration: replay the selected log entries with
        // downcalls answered from the return-value log.
        let replay_start = self.clock.now();
        let replayed = match self.replay_log(idx, &mut comp, false) {
            Ok(replayed) => replayed,
            Err(e) => {
                self.slots[idx].comp = Some(comp);
                return Err(e);
            }
        };

        let replay_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(
                &member_name,
                RecoveryPhase::LogReplay,
                replay_start,
                replay_end,
            )
        });

        if let Some(data) = extract {
            comp.restore_runtime(data)?;
        }
        comp.finish_replay();

        self.slots[idx].comp = Some(comp);
        self.slots[idx].up = true;
        self.slots[idx].reboots += 1;
        let resume_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(&member_name, RecoveryPhase::Resume, replay_end, resume_end)
        });
        Ok((replayed, snapshot_bytes))
    }

    /// Encapsulated restoration (§V-B): replays slot `idx`'s log into
    /// `comp`, answering its downcalls from the return-value log, and
    /// returns the entries replayed. A divergence fail-stops the system;
    /// `swap` words the error for a swapped-in implementation.
    pub(crate) fn replay_log(
        &mut self,
        idx: usize,
        comp: &mut ComponentBox,
        swap: bool,
    ) -> Result<usize, OsError> {
        if !self.slots[idx].desc.is_stateful() {
            return Ok(0);
        }
        let entries = self.slots[idx].log.replay_entries();
        let name = self.slots[idx].name.clone();
        for entry in &entries {
            self.clock.advance(self.costs.replay_entry);
            let func_name = self.slots[idx].fns.shared_name(entry.func);
            let mut ctx = Ctx {
                sys: self,
                me: idx,
                pending: None,
                replay: Some(ReplayState {
                    downcalls: VecDeque::from(entry.downcalls.clone()),
                    hint: entry.ret.clone(),
                    component: name.clone(),
                }),
            };
            let outcome = comp.call(&mut ctx, &func_name, &entry.args);
            let (func, logged) = (&*func_name, &entry.ret);
            let detail = match outcome {
                Ok(ret) if ret == *logged => continue,
                Ok(ret) if swap => {
                    format!("{func} replayed to {ret} on the replacement (logged {logged})")
                }
                Ok(ret) => format!("{func} replayed to {ret} (logged {logged})"),
                Err(e) if swap => format!("{func} failed on the replacement: {e}"),
                Err(e) => format!("{func} failed during replay: {e}"),
            };
            self.failed = true;
            return Err(OsError::ReplayMismatch {
                component: name,
                detail,
            });
        }
        Ok(entries.len())
    }

    /// Forces a fail-stop failure of `component` right now — the §VII-E
    /// experiment "intentionally inject\[s\] a fail-stop failure into 9PFS …
    /// we force 9PFS to call `panic()` and trigger its reboot". The failure
    /// detector fires immediately and (under auto-recovery) the component is
    /// rebooted and restored.
    ///
    /// # Errors
    ///
    /// [`OsError::FailStop`] when the component is unrebootable or
    /// auto-recovery is off; reboot errors otherwise.
    pub fn force_component_failure(&mut self, component: &str) -> Result<RebootOutcome, OsError> {
        let tid = self
            .slot_index(component)
            .ok_or_else(|| OsError::UnknownComponent(component.to_owned()))?;
        self.stats.failures += 1;
        let detect_start = self.clock.now();
        self.clock.advance(self.costs.detector_check);
        let detect_end = self.clock.now();
        self.emit(|c| c.failure_detected(component, "panic", detect_end));
        if !self.auto_recover || !self.slots[tid].desc.is_rebootable() {
            return Err(self.terminal_failure(
                tid,
                &format!("component {component} fail-stopped without recovery"),
            ));
        }
        self.pending_recovery = Some(PendingRecovery {
            kind: "panic",
            detect_start,
            detect_end,
        });
        self.reboot_index(tid)
    }

    /// Fires the failure detector against a perfectly healthy component —
    /// a detector *false positive* (chaos fault injection). The detector
    /// pays its usual check cost, reports a spurious failure, and the
    /// component is needlessly rebooted, opening a real downtime window
    /// with no fault behind it.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names,
    /// [`OsError::Unrebootable`] for host-shared components; reboot errors
    /// otherwise.
    pub fn spurious_detection(&mut self, component: &str) -> Result<RebootOutcome, OsError> {
        let tid = self
            .slot_index(component)
            .ok_or_else(|| OsError::UnknownComponent(component.to_owned()))?;
        if !self.slots[tid].desc.is_rebootable() {
            return Err(OsError::Unrebootable {
                component: component.to_owned(),
            });
        }
        self.stats.spurious_detections += 1;
        let detect_start = self.clock.now();
        self.clock.advance(self.costs.detector_check);
        let detect_end = self.clock.now();
        self.emit(|c| c.failure_detected(component, "spurious", detect_end));
        self.pending_recovery = Some(PendingRecovery {
            kind: "spurious",
            detect_start,
            detect_end,
        });
        self.reboot_index(tid)
    }

    /// The conventional recovery baseline: restart the whole
    /// unikernel-linked application. Every client connection is reset, all
    /// component state and logs are discarded, and the application layer
    /// must rebuild its own state afterwards (e.g. Redis replays its AOF).
    ///
    /// # Errors
    ///
    /// Propagates boot-time failures (e.g. the root re-mount).
    pub fn full_reboot(&mut self) -> Result<FullRebootOutcome, OsError> {
        let start = self.clock.now();
        let resets_before = self.host.with(|w| w.network().resets_seen());

        // The VM goes down: peers see their connections die; the host side
        // of the devices is reinitialised by the hypervisor.
        self.host.with(|w| {
            w.network_mut().reset_all();
            w.ninep_mut().drop_all_fids();
        });
        for slot in &mut self.slots {
            if let Some(comp) = slot.comp.as_mut() {
                comp.reset();
            }
            slot.log.clear();
            slot.up = true;
            slot.condemned = false;
            slot.checkpoint_corrupt = false;
        }
        // VIRTIO's reset cleared the guest ring mirrors; a *full* reboot
        // resets the host side too (the hypervisor re-creates the device) —
        // unlike a component-local VIRTIO reboot.
        self.host.with(|w| w.host_device_reset());

        self.clock.advance(self.costs.full_boot);
        self.failed = false;
        self.faults.clear();
        self.detector_suppressed = 0;
        self.reboot_interrupts.clear();

        if self.slot_index("9pfs").is_some() {
            self.syscall(
                vampos_ukernel::names::VFS,
                vampos_oslib::funcs::vfs::MOUNT,
                &[Value::from("9pfs"), Value::from("/")],
            )?;
        }
        // Refresh boot checkpoints.
        for idx in 0..self.slots.len() {
            if self.slots[idx].desc.uses_checkpoint_init() {
                let snap = self.slots[idx]
                    .comp
                    .as_mut()
                    .expect("present after reboot")
                    .arena_mut()
                    .snapshot();
                self.slots[idx].boot_snapshot = Some(snap);
            }
        }

        let end = self.clock.now();
        self.stats.full_reboots += 1;
        self.stats.downtime.push(DowntimeWindow {
            component: "*".to_owned(),
            start,
            end,
        });
        let resets_after = self.host.with(|w| w.network().resets_seen());
        let connections_reset = resets_after - resets_before;
        self.emit(|c| c.full_reboot(start, end, connections_reset));
        Ok(FullRebootOutcome {
            downtime: end.saturating_sub(start),
            connections_reset,
        })
    }

    /// Failure handling: detect → reboot the failed component → replay the
    /// in-flight message once. A failure that recurs on the retry is
    /// treated as deterministic and the system fail-stops (§II-B).
    pub(crate) fn handle_failure(
        &mut self,
        tid: usize,
        err: OsError,
        caller: Option<usize>,
        func: FnId,
        func_name: &str,
        args: &[Value],
    ) -> Result<Value, OsError> {
        let target = self.slots[tid].name.clone();
        if self.detector_suppressed > 0 {
            // False-negative window (chaos fault injection): the detector
            // sleeps through this failure. The component stays down and
            // the raw error propagates with no recovery attempt — only an
            // outside actor (e.g. an escalation rung) brings it back.
            self.detector_suppressed -= 1;
            self.stats.missed_detections += 1;
            self.slots[tid].up = false;
            let at = self.clock.now();
            self.emit(|c| c.note(&format!("detector missed failure of {target}: {err}"), at));
            return Err(err);
        }
        self.stats.failures += 1;
        let detect_start = self.clock.now();
        self.clock.advance(self.costs.detector_check);
        let detect_end = self.clock.now();
        let kind = match &err {
            OsError::Panic { .. } => "panic",
            OsError::Hang { .. } => "hang",
            OsError::ProtectionFault(_) => "mpk-violation",
            _ => "failure",
        };
        self.emit(|c| c.failure_detected(&target, kind, detect_end));

        if !self.auto_recover {
            return Err(err);
        }
        if !self.slots[tid].desc.is_rebootable() {
            return Err(
                self.terminal_failure(tid, &format!("unrebootable component failed: {err}"))
            );
        }
        match self.retry_depth {
            0 => {
                self.pending_recovery = Some(PendingRecovery {
                    kind,
                    detect_start,
                    detect_end,
                });
                self.reboot_index(tid)?;
            }
            1 if self.alternates.contains_key(&target) => {
                // The failure recurred on the re-executed input: a
                // deterministic bug in the component's code. Swap in the
                // registered alternate version (§VIII multi-versioning) —
                // its code differs, so the buggy path is gone — restore it
                // from the same log, and try once more.
                let alt = self
                    .alternates
                    .remove(&target)
                    .expect("checked contains_key");
                self.faults.clear_component(ComponentId::new(tid));
                self.pending_recovery = Some(PendingRecovery {
                    kind,
                    detect_start,
                    detect_end,
                });
                self.swap_component(tid, alt)?;
                self.stats.version_swaps += 1;
            }
            _ => {
                // No more remedies: deterministic fault, outside the fault
                // model (§II-B).
                return Err(
                    self.terminal_failure(tid, &format!("failure recurred after recovery: {err}"))
                );
            }
        }

        // Re-execute the in-flight message.
        self.retry_depth += 1;
        let result = self.invoke_from(caller, ComponentId::new(tid), func, func_name, args);
        self.retry_depth -= 1;
        match result {
            Ok(v) => {
                self.stats.recovered_calls += 1;
                Ok(v)
            }
            // Deeper failure handling already produced the terminal error
            // (fail-stop or condemnation); pass it through.
            Err(e) => Err(e),
        }
    }

    /// The end of the line for one component's recovery: either the whole
    /// system fail-stops (§II-B) or, under graceful degradation (§VIII),
    /// only the component is condemned and the rest keeps serving.
    pub(crate) fn terminal_failure(&mut self, tid: usize, reason: &str) -> OsError {
        let name = self.slots[tid].name.clone();
        if self.graceful {
            self.slots[tid].up = false;
            self.slots[tid].condemned = true;
            let at = self.clock.now();
            self.emit(|c| {
                c.note(
                    &format!("component {name} condemned; system degraded: {reason}"),
                    at,
                )
            });
            return OsError::FailStop {
                reason: format!("{reason} (component {name} condemned; system degraded)"),
            };
        }
        self.failed = true;
        OsError::FailStop {
            reason: reason.to_owned(),
        }
    }
}
