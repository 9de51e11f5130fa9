//! The call path resolves `target.func` names to ids once per hop. These
//! tests pin what must not change with it: calls to names the image does
//! not link are still recorded and replayed, a version swap re-derives the
//! slot's logged set and dependency predictions from the replacement's
//! descriptor, replay errors still read in names, and faults armed on names
//! nothing calls never fire.

use vampos_core::{ComponentSet, InjectedFault, Mode, System};
use vampos_mem::{ArenaLayout, MemoryArena};
use vampos_ukernel::{CallContext, Component, ComponentDescriptor, OsError, SessionEvent, Value};

/// A stateful test component. `v2` selects the replacement version: it
/// logs `b` instead of `a`, depends on USER instead of PROCESS, and has no
/// crash bug.
struct Probe {
    desc: ComponentDescriptor,
    arena: MemoryArena,
    v2: bool,
    /// Outcomes observed by `stray` calls, folded into the state digest.
    seen: Vec<String>,
    calls: u64,
}

impl Probe {
    fn new(v2: bool) -> Self {
        let desc = ComponentDescriptor::new("probe", ArenaLayout::small())
            .stateful()
            .checkpoint_init();
        let desc = if v2 {
            desc.logs(&["b", "stray", "divergent"])
                .depends_on(&["user"])
        } else {
            desc.logs(&["a", "stray", "divergent", "crash"])
                .depends_on(&["process"])
        };
        Probe {
            desc,
            arena: MemoryArena::new("probe", ArenaLayout::small()),
            v2,
            seen: Vec::new(),
            calls: 0,
        }
    }
}

impl Component for Probe {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn arena(&self) -> &MemoryArena {
        &self.arena
    }
    fn arena_mut(&mut self) -> &mut MemoryArena {
        &mut self.arena
    }
    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        func: &str,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        match func {
            "a" | "b" => {
                self.calls += 1;
                Ok(Value::U64(self.calls))
            }
            // Downcalls to a component the image does not link and to a
            // function PROCESS does not have: both fail, and the failures
            // are part of the recorded control flow.
            "stray" => {
                for (target, f) in [("ghost", "haunt"), ("process", "no_such_fn")] {
                    let outcome = match ctx.invoke(target, f, &[]) {
                        Ok(v) => format!("{target}.{f} = {v}"),
                        Err(e) => format!("{target}.{f}: {e}"),
                    };
                    self.seen.push(outcome);
                }
                Ok(Value::U64(self.seen.len() as u64))
            }
            // Calls a different component during replay than live.
            "divergent" => {
                if ctx.is_replay() {
                    ctx.invoke("user", "getuid", &[])
                } else {
                    ctx.invoke("process", "getpid", &[])
                }
            }
            "crash" if !self.v2 => Err(OsError::Panic {
                component: "probe".into(),
                reason: "deterministic bug in v1".into(),
            }),
            "crash" => Ok(Value::Unit),
            "to_process" => ctx.invoke("process", "getpid", &[]),
            "to_user" => ctx.invoke("user", "getuid", &[]),
            other => Err(OsError::UnknownFunc {
                component: "probe".into(),
                func: other.into(),
            }),
        }
    }
    fn reset(&mut self) {
        self.seen.clear();
        self.calls = 0;
        self.arena.reset();
    }
    fn session_event(&self, _f: &str, _a: &[Value], _r: &Value) -> SessionEvent {
        SessionEvent::None
    }
    fn state_digest(&self) -> u64 {
        let text = format!("{}|{}", self.calls, self.seen.join("|"));
        vampos_ukernel::digest::fnv1a(text.as_bytes())
    }
}

fn system(alternate: bool) -> System {
    let mut builder = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Probe::new(false)));
    if alternate {
        builder = builder.alternate(Box::new(Probe::new(true)));
    }
    builder.build().expect("boot")
}

#[test]
fn downcalls_to_unknown_names_are_recorded_and_replay_identically() {
    let mut sys = system(false);
    assert_eq!(sys.syscall("probe", "stray", &[]).unwrap(), Value::U64(2));
    assert_eq!(sys.syscall("probe", "stray", &[]).unwrap(), Value::U64(4));
    assert_eq!(sys.log_len("probe"), 2);
    // Each entry holds both failed downcalls.
    assert_eq!(sys.log_records("probe"), 6);
    let before = sys.state_digest("probe");

    let outcome = sys.reboot_component("probe").unwrap();
    assert_eq!(outcome.replayed, 2);
    assert!(!sys.has_failed());
    assert_eq!(sys.state_digest("probe"), before, "replay reproduced state");
    // Live again: the unknown names still resolve to the same outcomes.
    assert_eq!(sys.syscall("probe", "stray", &[]).unwrap(), Value::U64(6));
    assert!(matches!(
        sys.syscall("ghost", "haunt", &[]),
        Err(OsError::UnknownComponent(name)) if name == "ghost"
    ));
}

#[test]
fn an_alternate_swap_logs_and_predicts_by_the_replacement() {
    let mut sys = system(true);
    let mispredicts = |sys: &System| sys.stats().das_mispredicts;

    // v1 logs `a`, not `b`, and predicts hops to PROCESS only.
    sys.syscall("probe", "a", &[]).unwrap();
    sys.syscall("probe", "b", &[]).unwrap();
    assert_eq!(sys.log_len("probe"), 1);
    let m = mispredicts(&sys);
    sys.syscall("probe", "to_process", &[]).unwrap();
    assert_eq!(mispredicts(&sys), m);
    sys.syscall("probe", "to_user", &[]).unwrap();
    assert_eq!(mispredicts(&sys), m + 1);

    // The crash recurs after a plain reboot, so v2 is swapped in.
    sys.syscall("probe", "crash", &[]).unwrap();
    assert_eq!(sys.stats().version_swaps, 1);
    assert!(!sys.has_failed());

    // v2 logs `b`, not `a`, and predicts hops to USER only.
    let logged = sys.log_len("probe");
    sys.syscall("probe", "a", &[]).unwrap();
    assert_eq!(sys.log_len("probe"), logged);
    sys.syscall("probe", "b", &[]).unwrap();
    assert_eq!(sys.log_len("probe"), logged + 1);
    let m = mispredicts(&sys);
    sys.syscall("probe", "to_user", &[]).unwrap();
    assert_eq!(mispredicts(&sys), m);
    sys.syscall("probe", "to_process", &[]).unwrap();
    assert_eq!(mispredicts(&sys), m + 1);
}

#[test]
fn a_replay_mismatch_names_the_calls_in_text() {
    let mut sys = system(false);
    sys.syscall("probe", "divergent", &[]).unwrap();
    let err = sys.reboot_component("probe").unwrap_err();
    let OsError::ReplayMismatch { component, detail } = &err else {
        panic!("expected a replay mismatch, got {err}");
    };
    assert_eq!(component, "probe");
    assert_eq!(
        detail,
        "divergent failed during replay: replay mismatch restoring probe: \
         replay expected process.getpid, component called user.getuid"
    );

    // The same divergence while restoring a swapped-in implementation.
    let mut sys = system(false);
    sys.syscall("probe", "divergent", &[]).unwrap();
    let err = sys
        .update_component("probe", Box::new(Probe::new(true)))
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "replay mismatch restoring probe: divergent failed on the replacement: \
         replay mismatch restoring probe: \
         replay expected process.getpid, component called user.getuid"
    );
}

#[test]
fn faults_armed_on_names_nothing_calls_never_fire() {
    let mut sys = system(false);
    sys.inject_fault(InjectedFault::panic_next("ghost"));
    sys.inject_fault(InjectedFault::panic_next("process").on_func("no_such_syscall"));
    sys.inject_fault(InjectedFault::panic_next("user").on_func("getuid"));
    for _ in 0..3 {
        sys.os().getpid().unwrap();
    }
    assert_eq!(sys.stats().failures, 0);
    assert_eq!(sys.armed_faults().len(), 3);
    // A fault on a real name fires on its first matching call.
    sys.os().getuid().unwrap();
    assert_eq!(sys.stats().failures, 1);
    assert_eq!(sys.stats().recovered_calls, 1);
    assert_eq!(sys.armed_faults().len(), 2);
}
