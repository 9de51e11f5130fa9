//! The VampOS runtime: [`System`], its builder, boot sequence, and the
//! message-passing invoke path (§V-A, §V-C, §V-D).

use std::collections::BTreeMap;

use vampos_host::HostHandle;
use vampos_mem::Snapshot;
use vampos_mpk::{AccessKind, DomainId, KeyRegistry, Pkru};
use vampos_sim::{CostModel, Nanos, SimClock, SimRng};
use vampos_telemetry::{Collector, TelemetrySink};
use vampos_ukernel::{
    names, CallContext, ComponentBox, ComponentDescriptor, OsError, TouchSynthesis, Value,
};

use crate::config::{ComponentSet, Mode, SchedulerKind};
use crate::faults::{FaultAction, FaultKey, FaultPlan};
use crate::funclog::{downcall_bytes, entry_bytes, Call, Compaction, DownRec, FunctionLog};
use crate::os::Os;
use crate::stats::SystemStats;
use crate::symbols::{slot_named, Caller, ComponentId, FnId, FnTable, COMPACTOR};

/// Message-domain memory reserved per component in VampOS mode (message
/// buffers; the function logs are accounted separately by actual size).
pub const MSG_DOMAIN_BYTES: usize = 256 << 10;

pub(crate) struct Slot {
    pub(crate) name: String,
    pub(crate) comp: Option<ComponentBox>,
    pub(crate) desc: ComponentDescriptor,
    /// The component's function ids and logged bits, derived from `desc`.
    pub(crate) fns: FnTable,
    /// `predicts[t]`: a hop from this component to slot `t` is one its
    /// descriptor declares, so dependency-aware scheduling predicts it.
    /// Derived from `desc`.
    pub(crate) predicts: Vec<bool>,
    pub(crate) log: FunctionLog,
    pub(crate) up: bool,
    pub(crate) domain: DomainId,
    /// Merge-group id (slots sharing a group interact by direct calls).
    pub(crate) group: usize,
    pub(crate) boot_snapshot: Option<Snapshot>,
    pub(crate) reboots: u64,
    /// Cross-component calls that reached this component (counted once the
    /// call is past fault injection, i.e. when its request hop is charged).
    pub(crate) calls_in: u64,
    /// Recoveries started on this component, aborted ones included (unlike
    /// `reboots`, which counts only completed ones).
    pub(crate) reboot_attempts: u64,
    /// Permanently down (graceful degradation after unrecoverable failure).
    pub(crate) condemned: bool,
    /// The stored boot checkpoint fails validation (chaos fault injection);
    /// the next component reboot aborts at the restore phase. Cleared by a
    /// full reboot, which recaptures the checkpoint from scratch.
    pub(crate) checkpoint_corrupt: bool,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("name", &self.name)
            .field("up", &self.up)
            .field("group", &self.group)
            .field("log_len", &self.log.len())
            .finish()
    }
}

/// A simulated unikernel-linked application instance.
///
/// `System` owns the component slots, the virtual clock, the cost model, the
/// protection-key registry and the failure machinery. Applications issue
/// syscalls through [`System::os`]; experiments reboot components through
/// [`System::reboot_component`] and inject faults through
/// [`System::inject_fault`].
///
/// # Example
///
/// ```
/// use vampos_core::{ComponentSet, Mode, System};
/// use vampos_oslib::OpenFlags;
///
/// let mut sys = System::builder()
///     .mode(Mode::vampos_das())
///     .components(ComponentSet::sqlite())
///     .build()?;
/// let fd = sys.os().open("/db.sqlite", OpenFlags::RDWR | OpenFlags::CREAT)?;
/// sys.os().write(fd, b"page0")?;
/// sys.reboot_component("vfs")?;
/// sys.os().write(fd, b"page1")?; // fd survived the reboot
/// # Ok::<(), vampos_ukernel::OsError>(())
/// ```
pub struct System {
    pub(crate) clock: SimClock,
    pub(crate) costs: CostModel,
    pub(crate) rng: SimRng,
    pub(crate) mode: Mode,
    pub(crate) set: ComponentSet,
    pub(crate) host: HostHandle,
    pub(crate) slots: Vec<Slot>,
    /// Component names calls have used that the image does not link, with
    /// their function tables; [`ComponentId`] `slots.len() + i` is entry `i`.
    pub(crate) unlinked: Vec<(String, FnTable)>,
    pub(crate) mpk: KeyRegistry,
    pub(crate) auto_recover: bool,
    pub(crate) graceful: bool,
    pub(crate) alternates: BTreeMap<String, ComponentBox>,
    pub(crate) faults: FaultPlan,
    pub(crate) stats: SystemStats,
    pub(crate) failed: bool,
    pub(crate) retry_depth: u32,
    pub(crate) booted_at: Nanos,
    pub(crate) telemetry: Option<TelemetrySink>,
    pub(crate) pending_recovery: Option<PendingRecovery>,
    /// Failure-detector false-negative window: while positive, detected
    /// failures are counted but *not* recovered (the error propagates raw
    /// and the slot stays down). Chaos fault injection.
    pub(crate) detector_suppressed: u32,
    /// Components whose next reboot aborts partway (reboot-during-reboot
    /// chaos fault injection); each entry is consumed by one aborted reboot.
    pub(crate) reboot_interrupts: std::collections::BTreeSet<String>,
}

/// Detection context stashed by the failure paths so the recovery span a
/// subsequent [`System::reboot_index`] opens can name its trigger and be
/// back-dated to when detection started.
pub(crate) struct PendingRecovery {
    pub(crate) kind: &'static str,
    pub(crate) detect_start: Nanos,
    pub(crate) detect_end: Nanos,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode.label())
            .field("set", &self.set.name())
            .field("components", &self.slots.len())
            .field("failed", &self.failed)
            .finish()
    }
}

/// Builder for [`System`].
pub struct SystemBuilder {
    mode: Mode,
    set: ComponentSet,
    costs: CostModel,
    seed: u64,
    host: Option<HostHandle>,
    auto_recover: bool,
    extra: Vec<ComponentBox>,
    graceful: bool,
    alternates: Vec<ComponentBox>,
    allow_analysis_errors: bool,
    telemetry: Option<TelemetrySink>,
    clock: Option<SimClock>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("mode", &self.mode.label())
            .field("set", &self.set.name())
            .field("extra", &self.extra.len())
            .finish()
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            mode: Mode::vampos_das(),
            set: ComponentSet::echo(),
            costs: CostModel::default(),
            seed: 0x5EED,
            host: None,
            auto_recover: true,
            extra: Vec::new(),
            graceful: false,
            alternates: Vec::new(),
            allow_analysis_errors: false,
            telemetry: None,
            clock: None,
        }
    }
}

impl SystemBuilder {
    /// Sets the execution mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the component set.
    pub fn components(mut self, set: ComponentSet) -> Self {
        self.set = set;
        self
    }

    /// Overrides the cost model.
    pub fn cost_model(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Seeds the deterministic RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an existing host world (to pre-stage files or share the
    /// network with a workload generator).
    pub fn host(mut self, host: HostHandle) -> Self {
        self.host = Some(host);
        self
    }

    /// Enables/disables automatic in-line recovery on detected failures.
    pub fn auto_recover(mut self, on: bool) -> Self {
        self.auto_recover = on;
        self
    }

    /// Attaches a telemetry sink: every cross-component call, syscall and
    /// recovery is additionally recorded as a timestamped span (with
    /// per-component metrics) in the sink's [`vampos_telemetry::TelemetryHub`].
    /// Without a sink the runtime builds no observability data at all; the
    /// exact counters ([`System::stats`], [`System::calls_into`],
    /// [`System::reboot_attempts`]) are kept either way.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Attaches an existing virtual clock instead of starting a fresh one
    /// at zero. `SimClock` clones share a single timeline, so several
    /// systems built with clones of the same clock advance each other —
    /// the multiplexing a multi-instance fleet needs. The system boots at
    /// the clock's *current* time (`booted_at` records it).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enables graceful degradation (§VIII): an unrecoverable component is
    /// condemned (permanently down) instead of fail-stopping the whole
    /// system, so the application can salvage state through the survivors.
    pub fn graceful_degradation(mut self, on: bool) -> Self {
        self.graceful = on;
        self
    }

    /// Registers an alternate implementation (multi-version execution,
    /// §VIII): when a failure recurs after recovery — a deterministic bug
    /// in the original code — the alternate is swapped in, restored from
    /// the same log, and the in-flight call is re-executed once more.
    pub fn alternate(mut self, comp: ComponentBox) -> Self {
        self.alternates.push(comp);
        self
    }

    /// Boots the system even when pre-boot static analysis finds
    /// error-severity problems. Intended for experiments that deliberately
    /// construct broken configurations (fault-injection studies, analyzer
    /// tests); production configurations should fix the findings instead.
    pub fn allow_analysis_errors(mut self) -> Self {
        self.allow_analysis_errors = true;
        self
    }

    /// Links an additional, user-defined component into the unikernel.
    /// The component gets its own protection domain, message domain and
    /// function log, and participates in reboots and rejuvenation exactly
    /// like the built-in components.
    pub fn extra_component(mut self, comp: ComponentBox) -> Self {
        self.extra.push(comp);
        self
    }

    /// Boots the system: registers protection domains, instantiates and
    /// initialises the components, mounts the root file system (when the
    /// set includes 9PFS) and captures boot checkpoints.
    ///
    /// # Errors
    ///
    /// Fails when protection keys are exhausted or boot syscalls fail.
    pub fn build(self) -> Result<System, OsError> {
        let host = self.host.unwrap_or_default();
        let hang_threshold = self
            .mode
            .vamp_config()
            .map(|c| c.hang_threshold)
            .unwrap_or(Nanos::SECOND);

        let mut mpk = KeyRegistry::hardware();
        let app_domain = mpk
            .register(names::APP)
            .map_err(|e| OsError::Io(e.to_string()))?;
        let _ = app_domain;

        // Resolve merge groups: group id = index of the group's first slot.
        let merges: Vec<Vec<String>> = self
            .mode
            .vamp_config()
            .map(|c| c.merges.clone())
            .unwrap_or_default();

        let mut slots: Vec<Slot> = Vec::new();
        let mut boot_components: Vec<(String, ComponentBox)> = Vec::new();
        for &name in self.set.components() {
            let comp = crate::analysis::instantiate(name, &host)?;
            boot_components.push((name.to_owned(), comp));
        }
        for comp in self.extra {
            let name = comp.descriptor().name().as_str().to_owned();
            boot_components.push((name, comp));
        }

        // Pre-boot static analysis over the full configuration (built-ins
        // plus user-defined extras). Error-severity findings abort the boot
        // unless the caller opted out.
        let analysis_input = vampos_analyze::AnalysisInput::new(self.set.name())
            .components(boot_components.iter().map(|(_, c)| c.descriptor().clone()))
            .merges(&merges)
            .virtualized(mpk.is_virtualized());
        let report = vampos_analyze::analyze(&analysis_input);
        if !report.is_clean() && !self.allow_analysis_errors {
            return Err(OsError::AnalysisRejected {
                errors: report.error_count(),
                report: report.render(),
            });
        }

        for (name, comp) in boot_components {
            let name = name.as_str();
            let desc = comp.descriptor().clone();
            let idx = slots.len();
            // A merged component shares the protection domain of the first
            // member of its group (§V-F: "a single MPK tag manages the
            // memory domain" of a merged component).
            let group_leader = merges
                .iter()
                .find(|g| g.iter().any(|m| m == name))
                .and_then(|g| g.iter().filter_map(|m| slot_named(&slots, m)).min());
            let (domain, group) = match group_leader {
                Some(leader) => {
                    let leader_slot: &Slot = &slots[leader];
                    (leader_slot.domain, leader_slot.group)
                }
                None => (
                    mpk.register(name).map_err(|e| OsError::Io(e.to_string()))?,
                    idx,
                ),
            };
            slots.push(Slot {
                name: name.to_owned(),
                comp: Some(comp),
                fns: FnTable::seeded(&desc),
                predicts: Vec::new(),
                desc,
                log: FunctionLog::new(),
                up: true,
                domain,
                group,
                boot_snapshot: None,
                reboots: 0,
                calls_in: 0,
                reboot_attempts: 0,
                condemned: false,
                checkpoint_corrupt: false,
            });
        }
        let predicts: Vec<Vec<bool>> = slots
            .iter()
            .map(|s| predicted_targets(&s.desc, &slots))
            .collect();
        for (slot, predicts) in slots.iter_mut().zip(predicts) {
            slot.predicts = predicts;
        }
        mpk.register(names::MSG_DOMAIN)
            .map_err(|e| OsError::Io(e.to_string()))?;
        mpk.register(names::SCHED)
            .map_err(|e| OsError::Io(e.to_string()))?;

        let mut sys = System {
            clock: self.clock.unwrap_or_default(),
            costs: self.costs,
            rng: SimRng::seed_from(self.seed),
            mode: self.mode,
            set: self.set,
            host,
            slots,
            unlinked: Vec::new(),
            mpk,
            auto_recover: self.auto_recover,
            graceful: self.graceful,
            alternates: self
                .alternates
                .into_iter()
                .map(|c| (c.descriptor().name().as_str().to_owned(), c))
                .collect(),
            faults: FaultPlan::new(hang_threshold),
            stats: SystemStats::default(),
            failed: false,
            retry_depth: 0,
            booted_at: Nanos::ZERO,
            telemetry: self.telemetry,
            pending_recovery: None,
            detector_suppressed: 0,
            reboot_interrupts: std::collections::BTreeSet::new(),
        };
        sys.boot()?;
        Ok(sys)
    }
}

impl System {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    fn boot(&mut self) -> Result<(), OsError> {
        // Initialise components in dependency order (leaves first), then
        // any user-defined extras in registration order.
        let known = [
            "virtio", "netdev", "9pfs", "lwip", "process", "sysinfo", "user", "timer", "vfs",
        ];
        let mut order: Vec<String> = known
            .iter()
            .filter(|n| self.slot_index(n).is_some())
            .map(|n| (*n).to_owned())
            .collect();
        for slot in &self.slots {
            if !known.contains(&slot.name.as_str()) {
                order.push(slot.name.clone());
            }
        }
        for name in order {
            if let Some(idx) = self.slot_index(name.as_str()) {
                let mut comp = self.slots[idx]
                    .comp
                    .take()
                    .expect("boot: component present");
                let mut ctx = Ctx {
                    sys: self,
                    me: idx,
                    pending: None,
                    replay: None,
                };
                let res = comp.init(&mut ctx);
                self.slots[idx].comp = Some(comp);
                res?;
            }
        }
        // Mount the root file system through the regular (logged) path.
        if self.slot_index("9pfs").is_some() {
            self.syscall(
                names::VFS,
                vampos_oslib::funcs::vfs::MOUNT,
                &[Value::from("9pfs"), Value::from("/")],
            )?;
        }
        // Capture boot-phase checkpoints (§V-E) for checkpoint-init
        // components.
        for idx in 0..self.slots.len() {
            if self.slots[idx].desc.uses_checkpoint_init() {
                let snap = self.slots[idx]
                    .comp
                    .as_mut()
                    .expect("boot: component present")
                    .arena_mut()
                    .snapshot();
                self.clock
                    .advance(self.costs.snapshot_capture(snap.byte_len()));
                self.slots[idx].boot_snapshot = Some(snap);
            }
        }
        self.booted_at = self.clock.now();
        Ok(())
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// When this system finished booting. Zero unless the builder attached
    /// a shared, already-advanced clock ([`SystemBuilder::clock`]).
    pub fn booted_at(&self) -> Nanos {
        self.booted_at
    }

    /// The active cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The execution mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The component set.
    pub fn component_set(&self) -> &ComponentSet {
        &self.set
    }

    /// The host world handle (stage fixtures, drive workload clients).
    pub fn host(&self) -> &HostHandle {
        &self.host
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Mutable statistics (the harness resets summaries between phases).
    pub fn stats_mut(&mut self) -> &mut SystemStats {
        &mut self.stats
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.telemetry.as_ref()
    }

    /// Hands one observability event to the telemetry hub, when one is
    /// attached. Without a hub `f` never runs, so event arguments computed
    /// inside it cost nothing.
    pub(crate) fn emit(&self, f: impl FnOnce(&mut dyn Collector)) {
        if let Some(sink) = &self.telemetry {
            sink.with(|hub| f(hub));
        }
    }

    /// True once the system has fail-stopped (§II-B).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Number of MPK protection domains registered (tags in §VI terms).
    pub fn mpk_tags(&self) -> usize {
        self.mpk.domain_count()
    }

    /// The POSIX-ish syscall facade.
    pub fn os(&mut self) -> Os<'_> {
        Os::new(self)
    }

    /// Arms an injected fault. Its names are resolved now; a name no call
    /// uses never matches.
    pub fn inject_fault(&mut self, fault: crate::faults::InjectedFault) {
        let component = self.component_id(&fault.component);
        let func = fault
            .func
            .as_deref()
            .map(|f| self.fn_table_mut(component).resolve(f));
        self.faults.arm(fault, FaultKey { component, func });
    }

    /// The faults still armed on the system, in arm order. A liveness
    /// oracle can check that every armed fault either fired
    /// ([`InjectedFault::fired`] > 0) or was consumed (absent here).
    pub fn armed_faults(&self) -> &[crate::faults::InjectedFault] {
        self.faults.faults()
    }

    /// Arms a failure-detector false-negative window (chaos fault
    /// injection): the next `n` detected failures are counted in
    /// [`SystemStats::missed_detections`](crate::SystemStats) but not
    /// recovered — the error propagates raw and the faulty component stays
    /// down until something else (e.g. an escalation rung) reboots it.
    pub fn suppress_detection(&mut self, n: u32) {
        self.detector_suppressed = n;
    }

    /// Remaining suppressed-detection budget.
    pub fn detector_suppressed(&self) -> u32 {
        self.detector_suppressed
    }

    /// Marks `component`'s stored boot checkpoint as failing validation
    /// (chaos fault injection): the next component reboot aborts at the
    /// checkpoint-restore phase. A full reboot recaptures the checkpoint
    /// and clears the flag. Unknown names are ignored.
    pub fn corrupt_boot_checkpoint(&mut self, component: &str) {
        if let Some(idx) = self.slot_index(component) {
            self.slots[idx].checkpoint_corrupt = true;
        }
    }

    /// Corrupts the newest live entry of `component`'s function log (chaos
    /// fault injection): the next reboot's replay deterministically
    /// diverges from the logged return value. Returns whether an entry was
    /// corrupted (false for unknown names or empty logs).
    pub fn corrupt_replay_log(&mut self, component: &str) -> bool {
        match self.slot_index(component) {
            Some(idx) => self.slots[idx].log.corrupt_newest_ret(),
            None => false,
        }
    }

    /// Arms a reboot-during-reboot interrupt for `component` (chaos fault
    /// injection): its next reboot aborts between the checkpoint-restore
    /// and replay phases, as if a second reboot request preempted it. The
    /// interrupt is consumed by the aborted attempt, so a follow-up reboot
    /// runs to completion.
    pub fn arm_reboot_interrupt(&mut self, component: &str) {
        self.reboot_interrupts.insert(component.to_owned());
    }

    /// Whether `component` can be rebooted alone (`None` for unknown
    /// names). Host-shared components such as VIRTIO cannot (§VIII).
    pub fn is_rebootable(&self, component: &str) -> Option<bool> {
        self.slot_index(component)
            .map(|i| self.slots[i].desc.is_rebootable())
    }

    /// Whether the hang detector ignores `component` (`None` for unknown
    /// names). Event-waiting components such as LWIP are exempt (§V-A).
    pub fn is_hang_exempt(&self, component: &str) -> Option<bool> {
        self.slot_index(component)
            .map(|i| self.slots[i].desc.is_hang_exempt())
    }

    /// Current live log entries of a component.
    pub fn log_len(&self, component: &str) -> usize {
        self.slot_index(component)
            .map(|i| self.slots[i].log.len())
            .unwrap_or(0)
    }

    /// Current log records (entries + recorded downcall returns) of a
    /// component — the unit Table III counts.
    pub fn log_records(&self, component: &str) -> usize {
        self.slot_index(component)
            .map(|i| self.slots[i].log.record_count())
            .unwrap_or(0)
    }

    /// Total log records across all components.
    pub fn total_log_records(&self) -> usize {
        self.slots.iter().map(|s| s.log.record_count()).sum()
    }

    /// Total log bytes across all components.
    pub fn total_log_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.log.byte_len()).sum()
    }

    /// Memory utilisation report (Fig. 7b): arenas + VampOS overhead
    /// (message domains + function logs).
    pub fn memory_report(&self) -> MemoryReport {
        let arenas = self
            .slots
            .iter()
            .map(|s| s.comp.as_ref().map(|c| c.arena().footprint()).unwrap_or(0))
            .sum();
        let (msg_domains, logs) = if self.mode.is_vampos() {
            (self.slots.len() * MSG_DOMAIN_BYTES, self.total_log_bytes())
        } else {
            (0, 0)
        };
        MemoryReport {
            arenas,
            msg_domains,
            logs,
        }
    }

    /// A component's current state digest (testing / corruption checks).
    pub fn state_digest(&self, component: &str) -> Option<u64> {
        let idx = self.slot_index(component)?;
        self.slots[idx].comp.as_ref().map(|c| c.state_digest())
    }

    /// Per-component reboot count.
    pub fn reboot_count(&self, component: &str) -> u64 {
        self.slot_index(component)
            .map(|i| self.slots[i].reboots)
            .unwrap_or(0)
    }

    /// Recoveries started on `component`, including ones that aborted
    /// partway (which [`System::reboot_count`] does not count). Every
    /// member of a merged group is counted when the group reboots.
    pub fn reboot_attempts(&self, component: &str) -> u64 {
        self.slot_index(component)
            .map(|i| self.slots[i].reboot_attempts)
            .unwrap_or(0)
    }

    /// Cross-component calls into `component` since boot. A call counts
    /// once it passes fault injection, so a call an injected panic or hang
    /// stopped before its request hop does not (its retry does).
    pub fn calls_into(&self, component: &str) -> u64 {
        self.slot_index(component)
            .map(|i| self.slots[i].calls_in)
            .unwrap_or(0)
    }

    /// Names of all linked components, in boot order.
    pub fn component_names(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.name.clone()).collect()
    }

    /// Issues a syscall from the application layer.
    ///
    /// # Errors
    ///
    /// Propagates component errors; after a fail-stop every call returns
    /// [`OsError::FailStop`].
    pub fn syscall(&mut self, target: &str, func: &str, args: &[Value]) -> Result<Value, OsError> {
        let start = self.clock.now();
        self.emit(|c| c.syscall_begin(func, start));
        let (target, func_id) = self.resolve(target, func);
        let result = self.invoke_from(None, target, func_id, func, args);
        let end = self.clock.now();
        let ok = result.is_ok();
        self.emit(|c| c.syscall_end(end, ok));
        result
    }

    /// Simulates an out-of-interface wild write: the faulty component
    /// `from` stores through a corrupted pointer into `to`'s memory (§V-D).
    ///
    /// With isolation on, the MPK check faults, the failure detector fires,
    /// and (under auto-recovery) `from` is rebooted; `to` is untouched.
    /// With isolation off, `to`'s arena is silently corrupted.
    ///
    /// # Errors
    ///
    /// [`OsError::ProtectionFault`] when isolation caught the access.
    pub fn trigger_wild_write(&mut self, from: &str, to: &str) -> Result<(), OsError> {
        let from_idx = self
            .slot_index(from)
            .ok_or_else(|| OsError::UnknownComponent(from.to_owned()))?;
        let to_idx = self
            .slot_index(to)
            .ok_or_else(|| OsError::UnknownComponent(to.to_owned()))?;
        let isolation = self
            .mode
            .vamp_config()
            .map(|c| c.isolation)
            .unwrap_or(false);
        // The faulting store is checked against the PKRU the scheduler
        // installed for `from`'s thread: may it write pages tagged with
        // `to`'s protection key?
        let victim_key = self
            .mpk
            .physical(self.slots[to_idx].domain)
            .map_err(|e| OsError::Io(e.to_string()))?;
        let pkru = self.pkru_for(from)?;
        let permitted = pkru.permits(victim_key, AccessKind::Write);
        if isolation && !permitted {
            self.stats.mpk_switches += 1;
            self.stats.mpk_violations += 1;
            let at = self.clock.now();
            self.emit(|c| c.mpk_violation(from, to, at));
            self.stats.failures += 1;
            self.emit(|c| c.failure_detected(from, "mpk-violation", at));
            if self.auto_recover && self.slots[from_idx].desc.is_rebootable() {
                self.pending_recovery = Some(PendingRecovery {
                    kind: "mpk-violation",
                    detect_start: at,
                    detect_end: at,
                });
                self.reboot_index(from_idx)?;
            }
            return Err(OsError::ProtectionFault(format!(
                "{from} attempted write into memory of {to}"
            )));
        }
        // Unprotected (or intra-merge): corrupt the victim's heap.
        let comp =
            self.slots[to_idx]
                .comp
                .as_mut()
                .ok_or_else(|| OsError::ComponentUnavailable {
                    component: to.to_owned(),
                })?;
        let base = comp.arena().heap_base();
        let junk = [0xFFu8; 64];
        comp.arena_mut()
            .write(base, &junk)
            .map_err(|e| OsError::Io(e.to_string()))?;
        Ok(())
    }

    /// The PKRU value the thread scheduler installs when dispatching the
    /// named component (§V-D): full access to the component's own domain,
    /// read access to the message domain, everything else denied.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names.
    pub fn pkru_for(&mut self, component: &str) -> Result<Pkru, OsError> {
        let tid = self
            .slot_index(component)
            .ok_or_else(|| OsError::UnknownComponent(component.to_owned()))?;
        let own = self
            .mpk
            .physical(self.slots[tid].domain)
            .map_err(|e| OsError::Io(e.to_string()))?;
        let msgdom = self
            .mpk
            .domain(names::MSG_DOMAIN)
            .and_then(|d| self.mpk.physical(d).ok())
            .ok_or_else(|| OsError::Io("message domain unregistered".into()))?;
        Ok(Pkru::deny_all()
            .allowing(own, AccessKind::Write)
            .allowing(msgdom, AccessKind::Read))
    }

    /// The live-component count the round-robin scheduler walks: component
    /// threads + the application thread + the message thread.
    fn live_threads(&self) -> usize {
        self.slots.iter().filter(|s| s.up).count() + 2
    }

    fn charge_request_hop(
        &mut self,
        caller: Option<usize>,
        target: usize,
        bytes: usize,
        logged: bool,
    ) {
        match &self.mode {
            Mode::Unikraft => {
                self.clock.advance(self.costs.direct_call);
            }
            Mode::VampOs(cfg) => {
                let same_group = caller
                    .map(|c| self.slots[c].group == self.slots[target].group)
                    .unwrap_or(false);
                if same_group {
                    // Intra-merge: plain function call; logging retained.
                    let mut c = self.costs.direct_call;
                    if logged {
                        c += self.costs.log_append + self.costs.log_byte * bytes as u64;
                    }
                    self.clock.advance(c);
                    return;
                }
                let wait = match cfg.scheduler {
                    SchedulerKind::RoundRobin => self.costs.rr_wait(self.live_threads()),
                    SchedulerKind::DependencyAware => {
                        // The scheduler dispatches using the statically
                        // declared component correlations (§V-C). A hop to
                        // an undeclared target is a mispredict: the
                        // scheduler falls back to scanning the ring.
                        let predicted = match caller {
                            None => true, // the app's messages wake the scheduler directly
                            Some(c) => self.slots[c].predicts[target],
                        };
                        let mut w = if predicted {
                            self.costs.das_wait()
                        } else {
                            self.stats.das_mispredicts += 1;
                            self.costs.rr_wait(self.live_threads())
                        };
                        if logged {
                            // The scheduler dispatches the message thread to
                            // persist the arguments before the callee runs.
                            w += self.costs.msg_thread_dispatch;
                        }
                        w
                    }
                };
                let mut c = wait + self.costs.message_hop_cost(bytes, logged);
                if cfg.isolation {
                    c += self.costs.mpk_switch * 2;
                    self.stats.mpk_switches += 2;
                }
                self.clock.advance(c);
                self.stats.msg_hops += 1;
                self.stats.ctx_switches += 1;
            }
        }
    }

    fn charge_reply_hop(&mut self, caller: Option<usize>, target: usize, bytes: usize) {
        match &self.mode {
            Mode::Unikraft => {}
            Mode::VampOs(cfg) => {
                let same_group = caller
                    .map(|c| self.slots[c].group == self.slots[target].group)
                    .unwrap_or(false);
                if same_group {
                    return;
                }
                let wait = match cfg.scheduler {
                    SchedulerKind::RoundRobin => self.costs.rr_wait(self.live_threads()),
                    SchedulerKind::DependencyAware => self.costs.das_wait(),
                };
                self.clock
                    .advance(wait + self.costs.message_hop_cost(bytes, false));
                self.stats.msg_hops += 1;
                self.stats.ctx_switches += 1;
            }
        }
    }

    /// Replaces slot `tid`'s descriptor (a version swap) and re-derives
    /// what the call path caches from it: the logged bits and the
    /// dependency-aware predictions.
    pub(crate) fn set_descriptor(&mut self, tid: usize, desc: ComponentDescriptor) {
        let predicts = predicted_targets(&desc, &self.slots);
        let slot = &mut self.slots[tid];
        slot.fns.reseed(&desc);
        slot.predicts = predicts;
        slot.desc = desc;
    }

    /// One cross-component call, by id. `func_name` is `func`'s name, which
    /// the callee dispatches on.
    pub(crate) fn invoke_from(
        &mut self,
        caller: Option<usize>,
        target: ComponentId,
        func: FnId,
        func_name: &str,
        args: &[Value],
    ) -> Result<Value, OsError> {
        if self.failed {
            return Err(OsError::FailStop {
                reason: "system previously fail-stopped".to_owned(),
            });
        }
        let tid = target.index();
        let Some(slot) = self.slots.get(tid) else {
            return Err(OsError::UnknownComponent(
                self.component_name(target).to_owned(),
            ));
        };
        if !slot.up {
            return Err(OsError::ComponentUnavailable {
                component: slot.name.clone(),
            });
        }
        if slot.comp.is_none() {
            // The target's (conceptual) thread is blocked inside a call and
            // our simulation cannot re-enter it; VampOS would attach a fresh
            // thread (§V-A). The component DAG keeps this from happening on
            // legitimate paths.
            return Err(OsError::Io(format!("re-entrant call into {}", slot.name)));
        }

        // Fault injection fires at message-pull time.
        let action = self.faults.on_call(target, func);
        match action {
            FaultAction::None => {}
            FaultAction::Panic => {
                let err = OsError::Panic {
                    component: self.slots[tid].name.clone(),
                    reason: "injected fail-stop fault".to_owned(),
                };
                return self.handle_failure(tid, err, caller, func, func_name, args);
            }
            FaultAction::Hang(threshold) => {
                self.clock.advance(threshold);
                self.stats.ctx_switches += 1;
                if self.slots[tid].desc.is_hang_exempt() {
                    // The detector ignores event-waiting components (§V-A);
                    // the caller just sees a very slow call.
                    return Err(OsError::WouldBlock);
                }
                let err = OsError::Hang {
                    component: self.slots[tid].name.clone(),
                };
                return self.handle_failure(tid, err, caller, func, func_name, args);
            }
            FaultAction::Leak(bytes) => {
                if let Some(comp) = self.slots[tid].comp.as_mut() {
                    let _ = comp.arena_mut().leak(bytes);
                }
            }
            FaultAction::Flip { offset, bit } => {
                if let Some(comp) = self.slots[tid].comp.as_mut() {
                    let _ = comp.arena_mut().flip_bit(vampos_mem::Addr(offset), bit);
                }
            }
        }

        let logged = self.mode.is_vampos() && self.slots[tid].fns.is_logged(func);
        let args_bytes: usize = args.iter().map(Value::byte_len).sum();
        let hop_start = self.clock.now();
        self.charge_request_hop(caller, tid, args_bytes, logged);
        self.slots[tid].calls_in += 1;
        self.emit(|c| {
            c.call_begin(
                self.caller_name(caller),
                &self.slots[tid].name,
                func_name,
                hop_start,
            )
        });

        let mut comp = self.slots[tid].comp.take().expect("checked above");
        let mut ctx = Ctx {
            sys: self,
            me: tid,
            pending: logged.then(Pending::default),
            replay: None,
        };
        let result = comp.call(&mut ctx, func_name, args);
        let downcalls = ctx.pending.take().unwrap_or_default();
        self.slots[tid].comp = Some(comp);

        let outcome = match result {
            Ok(ret) => {
                let ret_bytes = ret.byte_len();
                self.charge_reply_hop(caller, tid, ret_bytes);
                if logged {
                    let bytes = entry_bytes(
                        self.caller_name(caller),
                        func_name,
                        args_bytes,
                        ret_bytes,
                        downcalls.bytes,
                    );
                    let call = Call {
                        caller: caller
                            .map_or(Caller::App, |c| Caller::Component(ComponentId::new(c))),
                        func,
                        args,
                        ret: &ret,
                        downcalls: downcalls.recs,
                        bytes,
                    };
                    self.append_log(tid, func_name, call);
                }
                Ok(ret)
            }
            Err(err) if err.is_failure() => {
                let err = match err {
                    // Components report their own crashes generically; pin
                    // the component name for the detector.
                    OsError::Panic { reason, .. } => OsError::Panic {
                        component: self.slots[tid].name.clone(),
                        reason,
                    },
                    other => other,
                };
                self.handle_failure(tid, err, caller, func, func_name, args)
            }
            Err(err) => {
                self.charge_reply_hop(caller, tid, 8);
                Err(err)
            }
        };
        self.emit(|c| c.call_end(self.clock.now(), outcome.is_ok()));
        outcome
    }

    /// The name of a call's caller: a component slot, or the application.
    fn caller_name(&self, caller: Option<usize>) -> &str {
        caller.map_or(names::APP, |c| self.slots[c].name.as_str())
    }

    fn append_log(&mut self, tid: usize, func_name: &str, call: Call<'_>) {
        // Copy out the two knobs rather than clone the config (and its
        // merge lists) on every logged call.
        let cfg = self
            .mode
            .vamp_config()
            .expect("only VampOS modes log calls");
        let (shrinking, threshold) = (cfg.log_shrinking, cfg.shrink_threshold);
        let slot = &mut self.slots[tid];
        let event = slot
            .comp
            .as_ref()
            .expect("component present")
            .session_event(func_name, call.args, call.ret);
        let outcome = slot.log.append(call, event, shrinking);
        let live = slot.log.len() as u64;
        self.stats.log_appended += 1;
        self.stats.log_removed += outcome.removed as u64;
        if outcome.removed > 0 {
            let removed = outcome.removed;
            self.clock
                .advance(self.costs.log_shrink_scan * (removed as u64 + live));
            let at = self.clock.now();
            self.emit(|c| c.log_shrunk(&self.slots[tid].name, removed, at));
        }
        // Threshold-triggered compaction of still-open sessions (§V-F).
        if shrinking && self.slots[tid].log.len() > threshold {
            self.compact_component_log(tid);
        }
        self.emit(|c| {
            let slot = &self.slots[tid];
            c.log_stats(&slot.name, slot.log.byte_len(), slot.log.record_count());
        });
    }

    fn compact_component_log(&mut self, tid: usize) {
        let sessions = self.slots[tid].log.touched_sessions();
        let scan = self.costs.log_shrink_scan * self.slots[tid].log.len() as u64;
        self.clock.advance(scan);
        let mut removed_total = 0usize;
        for session in sessions {
            let slot = &mut self.slots[tid];
            let decision = match slot
                .comp
                .as_ref()
                .expect("component present")
                .synthesize_touch(session)
            {
                TouchSynthesis::Keep => Compaction::Keep,
                TouchSynthesis::Drop => Compaction::Drop,
                TouchSynthesis::Replace { func, args, ret } => {
                    let args_bytes = args.iter().map(Value::byte_len).sum();
                    Compaction::Replace {
                        func: slot.fns.resolve(&func),
                        bytes: entry_bytes(COMPACTOR, &func, args_bytes, ret.byte_len(), 0),
                        args,
                        ret,
                    }
                }
            };
            removed_total += slot.log.compact_session(session, decision);
        }
        if removed_total > 0 {
            self.clock.advance(self.costs.compaction_pause);
            self.stats.log_removed += removed_total as u64;
            let at = self.clock.now();
            self.emit(|c| c.log_shrunk(&self.slots[tid].name, removed_total, at));
        }
    }
}

/// `Slot::predicts` for a component described by `desc` among `slots`.
fn predicted_targets(desc: &ComponentDescriptor, slots: &[Slot]) -> Vec<bool> {
    slots
        .iter()
        .map(|t| desc.dependencies().iter().any(|d| d.as_str() == t.name))
        .collect()
}

/// Memory utilisation breakdown (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Component arena footprints (the application-independent baseline).
    pub arenas: usize,
    /// Message-domain buffers (VampOS overhead).
    pub msg_domains: usize,
    /// Function-log bytes (VampOS overhead).
    pub logs: usize,
}

impl MemoryReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.arenas + self.msg_domains + self.logs
    }

    /// VampOS-attributable overhead bytes.
    pub fn vampos_overhead(&self) -> usize {
        self.msg_domains + self.logs
    }
}

/// The live call context handed to an executing component.
pub(crate) struct Ctx<'a> {
    pub(crate) sys: &'a mut System,
    pub(crate) me: usize,
    /// Downcall records for the in-flight logged entry.
    pub(crate) pending: Option<Pending>,
    /// Replay state during encapsulated restoration.
    pub(crate) replay: Option<ReplayState>,
}

/// The downcalls recorded for an in-flight logged entry, with their
/// [`downcall_bytes`] total.
#[derive(Default)]
pub(crate) struct Pending {
    pub(crate) recs: Vec<DownRec>,
    pub(crate) bytes: usize,
}

/// Replay bookkeeping: recorded downcalls served in order + the original
/// return value (the allocation hint).
pub(crate) struct ReplayState {
    pub(crate) downcalls: std::collections::VecDeque<DownRec>,
    pub(crate) hint: Value,
    pub(crate) component: String,
}

impl CallContext for Ctx<'_> {
    fn invoke(&mut self, target: &str, func: &str, args: &[Value]) -> Result<Value, OsError> {
        let (target_id, func_id) = self.sys.resolve(target, func);
        if let Some(replay) = &mut self.replay {
            // Encapsulated restoration: answer from the return-value log
            // instead of invoking the (running) component — §V-B.
            let rec = replay
                .downcalls
                .pop_front()
                .ok_or_else(|| OsError::ReplayMismatch {
                    component: replay.component.clone(),
                    detail: format!("unrecorded downcall {target}.{func} during replay"),
                })?;
            if rec.target != target_id || rec.func != func_id {
                return Err(OsError::ReplayMismatch {
                    component: replay.component.clone(),
                    detail: format!(
                        "replay expected {}.{}, component called {target}.{func}",
                        self.sys.component_name(rec.target),
                        self.sys.fn_table(rec.target).name(rec.func)
                    ),
                });
            }
            self.sys.clock.advance(self.sys.costs.direct_call);
            return rec.ret;
        }
        let result = self
            .sys
            .invoke_from(Some(self.me), target_id, func_id, func, args);
        if let Some(pending) = &mut self.pending {
            pending.bytes += downcall_bytes(func, &result);
            pending.recs.push(DownRec {
                target: target_id,
                func: func_id,
                ret: result.clone(),
            });
        }
        result
    }

    fn now(&self) -> Nanos {
        self.sys.clock.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.sys.clock.advance(cost);
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.sys.rng
    }

    fn costs(&self) -> &CostModel {
        &self.sys.costs
    }

    fn is_replay(&self) -> bool {
        self.replay.is_some()
    }

    fn replay_hint(&self) -> Option<&Value> {
        self.replay.as_ref().map(|r| &r.hint)
    }

    fn trace_instant(&mut self, name: &str, detail: &str) {
        // Replayed downcalls must not re-emit their original instants: the
        // replay already renders as a `log_replay` phase span.
        if self.replay.is_some() {
            return;
        }
        let sys = &*self.sys;
        sys.emit(|c| c.instant(&sys.slots[self.me].name, name, detail, sys.clock.now()));
    }
}
