//! Fault injection (the experiments of §VII-E and the fault model of §II-B).
//!
//! Faults are *armed* on the system and fire when a matching call reaches
//! the target component. Non-deterministic faults fire a limited number of
//! times (re-execution after recovery does not re-trigger them); a fault
//! armed as deterministic re-fires on the post-recovery retry, which drives
//! the system to fail-stop — exactly the §II-B policy.
//!
//! A fault names its target; the system resolves those names to ids when
//! the fault is armed ([`FaultKey`]), so matching a call costs two integer
//! compares per armed fault. A name nothing calls never matches.

use vampos_sim::Nanos;

use crate::symbols::{ComponentId, FnId};

/// What the injected fault does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The component invokes `panic()` (fail-stop crash).
    Panic,
    /// The component stops pulling messages; the hang detector fires after
    /// its threshold.
    Hang,
    /// An aging bug leaks `bytes` of the component's heap on every matching
    /// call (never "fires once"; it degrades continuously).
    LeakPerOp {
        /// Bytes leaked per call.
        bytes: usize,
    },
    /// A non-deterministic bit flip in the component's arena at the given
    /// offset (hardware fault model).
    BitFlip {
        /// Arena-relative byte offset.
        offset: u64,
        /// Bit index within the byte.
        bit: u8,
    },
}

/// One armed fault.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Target component name.
    pub component: String,
    /// Only calls to this function trigger the fault (`None` = any call).
    pub func: Option<String>,
    /// Remaining calls to skip before firing.
    pub after_calls: u64,
    /// The effect.
    pub kind: FaultKind,
    /// Deterministic faults re-fire on the retry after recovery.
    pub deterministic: bool,
    /// Internal: how many times the fault has fired.
    pub fired: u64,
}

impl InjectedFault {
    /// A one-shot, non-deterministic panic on the next call to `component`.
    pub fn panic_next(component: &str) -> Self {
        InjectedFault {
            component: component.to_owned(),
            func: None,
            after_calls: 0,
            kind: FaultKind::Panic,
            deterministic: false,
            fired: 0,
        }
    }

    /// A deterministic panic: it will fire again after recovery.
    pub fn panic_deterministic(component: &str) -> Self {
        InjectedFault {
            deterministic: true,
            ..Self::panic_next(component)
        }
    }

    /// A one-shot hang on the next call to `component`.
    pub fn hang_next(component: &str) -> Self {
        InjectedFault {
            kind: FaultKind::Hang,
            ..Self::panic_next(component)
        }
    }

    /// A one-shot bit flip in `component`'s memory at `offset` (the
    /// non-deterministic hardware-fault model of §II-B).
    pub fn bit_flip(component: &str, offset: u64, bit: u8) -> Self {
        InjectedFault {
            kind: FaultKind::BitFlip { offset, bit },
            ..Self::panic_next(component)
        }
    }

    /// A continuous aging leak on `component`.
    pub fn leak_per_op(component: &str, bytes: usize) -> Self {
        InjectedFault {
            kind: FaultKind::LeakPerOp { bytes },
            deterministic: true, // leaks persist until rejuvenation
            ..Self::panic_next(component)
        }
    }

    /// Restricts the fault to calls of `func`.
    #[must_use]
    pub fn on_func(mut self, func: &str) -> Self {
        self.func = Some(func.to_owned());
        self
    }

    /// Skips the first `n` matching calls before firing.
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.after_calls = n;
        self
    }
}

/// The resolved target of an armed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKey {
    /// Target component.
    pub component: ComponentId,
    /// Only calls to this function match (`None` = any call).
    pub func: Option<FnId>,
}

impl FaultKey {
    fn matches(&self, component: ComponentId, func: FnId) -> bool {
        self.component == component && self.func.is_none_or(|f| f == func)
    }
}

/// The set of armed faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
    /// `keys[i]` is the resolved target of `faults[i]`.
    keys: Vec<FaultKey>,
    hang_threshold: Nanos,
}

/// What the runtime should do for one inbound call.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// No fault fires.
    None,
    /// Fail the call with a panic.
    Panic,
    /// Burn the hang threshold, then report a hang.
    Hang(Nanos),
    /// Leak heap bytes, then proceed normally.
    Leak(usize),
    /// Flip a bit in the arena, then proceed normally.
    Flip {
        /// Arena-relative byte offset.
        offset: u64,
        /// Bit index.
        bit: u8,
    },
}

impl FaultPlan {
    /// Creates an empty plan with the given hang threshold.
    pub fn new(hang_threshold: Nanos) -> Self {
        FaultPlan {
            faults: Vec::new(),
            keys: Vec::new(),
            hang_threshold,
        }
    }

    /// Arms a fault whose names resolved to `key`.
    pub fn arm(&mut self, fault: InjectedFault, key: FaultKey) {
        self.faults.push(fault);
        self.keys.push(key);
    }

    /// Number of armed faults still able to fire.
    pub fn armed(&self) -> usize {
        self.faults.len()
    }

    /// The armed faults, in arm order (the order [`FaultPlan::on_call`]
    /// consults them). One-shot faults disappear from this slice once they
    /// fire; continuous/deterministic faults stay with their
    /// [`InjectedFault::fired`] counter advancing.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// Disarms everything.
    pub fn clear(&mut self) {
        self.faults.clear();
        self.keys.clear();
    }

    /// Disarms every fault targeting `component` — used when a different
    /// version of the component is swapped in (its code, and therefore its
    /// deterministic bugs, are gone).
    pub fn clear_component(&mut self, component: ComponentId) {
        let mut i = 0;
        while i < self.faults.len() {
            if self.keys[i].component == component {
                self.faults.remove(i);
                self.keys.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Evaluates the plan for a call to `component::func`. At most one
    /// fault fires per call, the first matching one in arm order whose
    /// countdown has run out; matching faults before it count down. One-shot
    /// faults are consumed when they fire.
    pub fn on_call(&mut self, component: ComponentId, func: FnId) -> FaultAction {
        for i in 0..self.faults.len() {
            if !self.keys[i].matches(component, func) {
                continue;
            }
            let fault = &mut self.faults[i];
            if fault.after_calls > 0 {
                fault.after_calls -= 1;
                continue;
            }
            fault.fired += 1;
            let action = match fault.kind {
                FaultKind::Panic => FaultAction::Panic,
                FaultKind::Hang => FaultAction::Hang(self.hang_threshold),
                FaultKind::LeakPerOp { bytes } => FaultAction::Leak(bytes),
                FaultKind::BitFlip { offset, bit } => FaultAction::Flip { offset, bit },
            };
            // Deterministic faults stay armed; one-shot faults are consumed.
            if !fault.deterministic {
                self.faults.remove(i);
                self.keys.remove(i);
            }
            return action;
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FnTable;

    /// A plan plus the name tables its keys index, so the tests read in
    /// names.
    struct Named {
        plan: FaultPlan,
        components: Vec<String>,
        fns: Vec<FnTable>,
    }

    impl Named {
        fn new(hang_threshold: Nanos) -> Self {
            Named {
                plan: FaultPlan::new(hang_threshold),
                components: Vec::new(),
                fns: Vec::new(),
            }
        }

        fn component(&mut self, name: &str) -> ComponentId {
            let i = match self.components.iter().position(|c| c == name) {
                Some(i) => i,
                None => {
                    self.components.push(name.to_owned());
                    self.fns.push(FnTable::default());
                    self.components.len() - 1
                }
            };
            ComponentId::new(i)
        }

        fn arm(&mut self, fault: InjectedFault) {
            let component = self.component(&fault.component);
            let func = fault
                .func
                .as_deref()
                .map(|f| self.fns[component.index()].resolve(f));
            self.plan.arm(fault, FaultKey { component, func });
        }

        fn on_call(&mut self, component: &str, func: &str) -> FaultAction {
            let c = self.component(component);
            let f = self.fns[c.index()].resolve(func);
            self.plan.on_call(c, f)
        }

        fn clear_component(&mut self, component: &str) {
            let c = self.component(component);
            self.plan.clear_component(c);
        }

        fn armed(&self) -> usize {
            self.plan.armed()
        }

        fn faults(&self) -> &[InjectedFault] {
            self.plan.faults()
        }
    }

    #[test]
    fn one_shot_panic_fires_once() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("9pfs"));
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::None);
        assert_eq!(plan.on_call("9pfs", "uk_9pfs_read"), FaultAction::Panic);
        assert_eq!(plan.on_call("9pfs", "uk_9pfs_read"), FaultAction::None);
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn deterministic_panic_keeps_firing() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_deterministic("vfs"));
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::Panic);
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::Panic);
        assert_eq!(plan.armed(), 1);
    }

    #[test]
    fn func_filter_and_delay() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs").on_func("write").after(2));
        assert_eq!(plan.on_call("vfs", "read"), FaultAction::None);
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::None); // skip 1
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::None); // skip 2
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::Panic);
    }

    #[test]
    fn hang_carries_the_threshold() {
        let mut plan = Named::new(Nanos::from_millis(500));
        plan.arm(InjectedFault::hang_next("vfs"));
        assert_eq!(
            plan.on_call("vfs", "open"),
            FaultAction::Hang(Nanos::from_millis(500))
        );
    }

    #[test]
    fn leak_fires_continuously() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::leak_per_op("vfs", 64));
        for _ in 0..5 {
            assert_eq!(plan.on_call("vfs", "write"), FaultAction::Leak(64));
        }
        assert_eq!(plan.armed(), 1);
    }

    #[test]
    fn only_one_fault_fires_per_call() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs"));
        plan.arm(InjectedFault::hang_next("vfs"));
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::Panic);
        // The hang is still armed for the next call.
        assert_eq!(plan.armed(), 1);
        assert!(matches!(plan.on_call("vfs", "open"), FaultAction::Hang(_)));
    }

    #[test]
    fn arm_order_gives_precedence_on_the_same_function() {
        // Two faults scoped to the same component *and* function: the one
        // armed first wins the call; the second fires on the next call.
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::hang_next("vfs").on_func("write"));
        plan.arm(InjectedFault::panic_next("vfs").on_func("write"));
        assert!(matches!(plan.on_call("vfs", "write"), FaultAction::Hang(_)));
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::Panic);
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn wildcard_armed_first_beats_func_scoped_armed_second() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs")); // any function
        plan.arm(InjectedFault::hang_next("vfs").on_func("write"));
        // The wildcard was armed first, so it consumes the call even though
        // the second fault names the function explicitly.
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::Panic);
        assert!(matches!(plan.on_call("vfs", "write"), FaultAction::Hang(_)));
    }

    #[test]
    fn earlier_delayed_fault_counts_down_even_when_a_later_fault_fires() {
        // A delayed fault armed *before* the firing fault still burns its
        // countdown on the call (the plan walks faults in arm order and
        // decrements matching delays until one fault fires).
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs").after(2));
        plan.arm(InjectedFault::hang_next("vfs"));
        // Call 1: the delayed panic decrements (2→1), then the hang fires.
        assert!(matches!(plan.on_call("vfs", "open"), FaultAction::Hang(_)));
        // Call 2: only the panic remains; it decrements (1→0), nothing fires.
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::None);
        // Call 3: the panic's countdown is exhausted — it fires.
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::Panic);
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn later_delayed_fault_is_frozen_on_calls_consumed_by_an_earlier_fault() {
        // A delayed fault armed *after* the firing fault does NOT burn its
        // countdown on the call the earlier fault consumed: at most one
        // fault is evaluated-to-fire per call, and evaluation stops
        // decrementing once an action is chosen.
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs"));
        plan.arm(InjectedFault::hang_next("vfs").after(1));
        // Call 1: the panic fires; the hang's countdown must stay at 1.
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::Panic);
        assert_eq!(plan.faults()[0].after_calls, 1, "countdown must be frozen");
        // Call 2: the hang decrements (1→0), nothing fires.
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::None);
        // Call 3: the hang fires.
        assert!(matches!(plan.on_call("vfs", "open"), FaultAction::Hang(_)));
    }

    #[test]
    fn countdowns_only_decrement_on_matching_calls() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs").on_func("write").after(1));
        // Non-matching component and non-matching function leave the
        // countdown untouched.
        assert_eq!(plan.on_call("9pfs", "write"), FaultAction::None);
        assert_eq!(plan.on_call("vfs", "read"), FaultAction::None);
        assert_eq!(plan.faults()[0].after_calls, 1);
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::None); // 1→0
        assert_eq!(plan.on_call("vfs", "write"), FaultAction::Panic);
    }

    #[test]
    fn clear_component_leaves_other_components_armed() {
        let mut plan = Named::new(Nanos::SECOND);
        plan.arm(InjectedFault::panic_next("vfs"));
        plan.arm(InjectedFault::leak_per_op("vfs", 32));
        plan.arm(InjectedFault::hang_next("9pfs").after(1));
        plan.arm(InjectedFault::panic_next("lwip"));
        assert_eq!(plan.armed(), 4);

        plan.clear_component("vfs");
        assert_eq!(plan.armed(), 2);
        // The 9PFS countdown state survived the clear untouched.
        assert_eq!(plan.faults()[0].component, "9pfs");
        assert_eq!(plan.faults()[0].after_calls, 1);
        // Cleared component: calls pass clean.
        assert_eq!(plan.on_call("vfs", "open"), FaultAction::None);
        // Other components' faults still fire exactly as armed.
        assert_eq!(plan.on_call("9pfs", "read"), FaultAction::None); // 1→0
        assert!(matches!(plan.on_call("9pfs", "read"), FaultAction::Hang(_)));
        assert_eq!(plan.on_call("lwip", "socket"), FaultAction::Panic);
        assert_eq!(plan.armed(), 0);
    }
}
