//! Campaign execution: boot a fresh simulated system, drive the workload
//! with the spec's disruption schedule, and collect every observable the
//! oracles compare.
//!
//! A campaign is always executed twice from identical initial conditions —
//! once with the schedule (the *faulted* run) and once without (the
//! *fault-free twin*). Both runs issue exactly the same count-based request
//! stream, so any divergence in logical state is attributable to recovery,
//! not to clock-dependent load generation.

use std::collections::{BTreeMap, BTreeSet};

use vampos_apps::{App, Echo, MiniHttpd, MiniKv, MiniSql};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::HostHandle;
use vampos_sim::Nanos;
use vampos_telemetry::TelemetrySink;
use vampos_workloads::{EchoLoad, HttpLoad, KvLoad, Schedule, SqlLoad};

use crate::spec::{CampaignSpec, WorkloadKind};

/// Quiesce requests appended after the main stream (also the [`CampaignSpec::tail`]
/// default the generator uses).
pub const DEFAULT_TAIL: usize = 16;

/// Everything one run exposes to the oracles.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Successful requests in the main + tail stream (plant excluded).
    pub successes: usize,
    /// Total requests issued in the main + tail stream.
    pub requests: usize,
    /// Client reconnects the drive performed.
    pub reconnects: u64,
    /// The application's logical state digest after the run quiesced.
    pub app_digest: u64,
    /// Per-component logical state digests.
    pub component_digests: BTreeMap<String, u64>,
    /// Components a recovery was started on, aborted ones included (every
    /// member of a merged group).
    pub rebooted_components: BTreeSet<String>,
    /// Wild writes the MPK check denied.
    pub mpk_violations: u64,
    /// Downtime windows, in order (component name, duration).
    pub downtime: Vec<(String, Nanos)>,
    /// Component reboots performed.
    pub component_reboots: u64,
    /// Full reboots performed.
    pub full_reboots: u64,
    /// Log entries replayed across all restorations.
    pub replayed_entries: u64,
    /// Armed faults that never fired (fired == 0) by the end of the run.
    pub unfired_faults: Vec<String>,
    /// Scheduled disruptions that never came due.
    pub pending_disruptions: usize,
    /// Total arena bytes (sizes the snapshot-restore term of the recovery
    /// cost bound).
    pub arena_bytes: usize,
    /// Message hops per target component (the generator's exercise probe).
    pub hops_by_target: BTreeMap<String, u64>,
    /// Virtual time the main drive covered, relative to its own start
    /// (boot and plant excluded). Schedules fire on this same relative
    /// clock, so the generator sizes its event window from it.
    pub duration: Nanos,
    /// A drive-level error (fail-stop, storage error), if any. The run
    /// still reports whatever state it reached.
    pub error: Option<String>,
}

fn component_set(workload: WorkloadKind) -> ComponentSet {
    match workload {
        WorkloadKind::Echo => ComponentSet::echo(),
        WorkloadKind::Kv => ComponentSet::redis(),
        WorkloadKind::Http => ComponentSet::nginx(),
        WorkloadKind::Sql => ComponentSet::sqlite(),
    }
}

fn build_system(spec: &CampaignSpec, sink: Option<&TelemetrySink>) -> Result<System, String> {
    let host = HostHandle::new();
    if spec.workload == WorkloadKind::Http {
        host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
    }
    let mut builder = System::builder()
        .mode(Mode::vampos_das())
        .components(component_set(spec.workload))
        .seed(spec.seed)
        .host(host);
    if let Some(sink) = sink {
        builder = builder.telemetry(sink.clone());
    }
    builder.build().map_err(|e| format!("boot failed: {e:?}"))
}

fn http_load() -> HttpLoad {
    HttpLoad {
        clients: 1,
        duration: Nanos::ZERO, // unused by run_requests
        think_time: Nanos::from_millis(5),
        path: "/index.html".to_owned(),
        remote: false,
    }
}

/// Runs one spec. `faulted` selects whether the schedule (and the planted
/// extra request) apply; the twin is the same call with `faulted = false`.
pub fn run(spec: &CampaignSpec, faulted: bool) -> RunResult {
    run_with_sink(spec, faulted, None)
}

/// [`run`] with an optional telemetry sink attached to the simulated
/// system. The sink observes every cross-component call, syscall, and
/// recovery the run performs; virtual time makes the collected spans
/// byte-identical across repeated executions of the same spec.
pub fn run_with_sink(
    spec: &CampaignSpec,
    faulted: bool,
    sink: Option<&TelemetrySink>,
) -> RunResult {
    let disruptions = if faulted {
        spec.disruptions()
    } else {
        Vec::new()
    };
    let mut schedule = Schedule::new(disruptions);
    let plant = faulted && spec.plant;
    let requests = spec.ops + spec.tail;

    let mut result = RunResult {
        requests,
        ..RunResult::default()
    };

    let mut sys = match build_system(spec, sink) {
        Ok(sys) => sys,
        Err(e) => {
            result.error = Some(e);
            return result;
        }
    };

    // Boot the app, then drive. Each workload keeps its own concrete app
    // type (state_digest is on the trait).
    let drive_outcome: Result<(), String> = match spec.workload {
        WorkloadKind::Echo => {
            let mut app = Echo::new();
            app.boot(&mut sys)
                .map_err(|e| format!("app boot failed: {e:?}"))
                .and_then(|()| {
                    let load = EchoLoad {
                        messages: requests,
                        ..EchoLoad::default()
                    };
                    let outcome = load.run_with_disruptions(&mut sys, &mut app, &mut schedule);
                    if let Ok(report) = &outcome {
                        result.successes = report.successes();
                        result.reconnects = report.reconnects;
                        result.duration = report.duration;
                    }
                    outcome
                        .map(|_| ())
                        .map_err(|e| format!("drive failed: {e:?}"))
                })
                .and_then(|()| {
                    if plant {
                        let one = EchoLoad {
                            messages: 1,
                            ..EchoLoad::default()
                        };
                        let mut empty = Schedule::new(Vec::new());
                        one.run_with_disruptions(&mut sys, &mut app, &mut empty)
                            .map(|_| ())
                            .map_err(|e| format!("plant failed: {e:?}"))
                    } else {
                        Ok(())
                    }
                })
                .map(|()| result.app_digest = app.state_digest())
        }
        WorkloadKind::Kv => {
            let mut app = MiniKv::new(spec.aof);
            app.boot(&mut sys)
                .map_err(|e| format!("app boot failed: {e:?}"))
                .and_then(|()| {
                    let load = KvLoad::default();
                    let outcome =
                        load.run_sets_with_disruptions(&mut sys, &mut app, requests, &mut schedule);
                    if let Ok(report) = &outcome {
                        result.successes = report.successes();
                        result.reconnects = report.reconnects;
                        result.duration = report.duration;
                    }
                    outcome
                        .map(|_| ())
                        .map_err(|e| format!("drive failed: {e:?}"))
                })
                .and_then(|()| {
                    if plant {
                        // A longer value for key 0000 than the main stream
                        // writes: guaranteed to change the stored bytes.
                        let planted = KvLoad {
                            value_len: KvLoad::default().value_len + 2,
                            ..KvLoad::default()
                        };
                        let mut empty = Schedule::new(Vec::new());
                        planted
                            .run_sets_with_disruptions(&mut sys, &mut app, 1, &mut empty)
                            .map(|_| ())
                            .map_err(|e| format!("plant failed: {e:?}"))
                    } else {
                        Ok(())
                    }
                })
                .map(|()| result.app_digest = app.state_digest())
        }
        WorkloadKind::Http => {
            let mut app = MiniHttpd::default();
            app.boot(&mut sys)
                .map_err(|e| format!("app boot failed: {e:?}"))
                .and_then(|()| {
                    let outcome =
                        http_load().run_requests(&mut sys, &mut app, requests, &mut schedule);
                    if let Ok(report) = &outcome {
                        result.successes = report.successes();
                        result.reconnects = report.reconnects;
                        result.duration = report.duration;
                    }
                    outcome
                        .map(|_| ())
                        .map_err(|e| format!("drive failed: {e:?}"))
                })
                .and_then(|()| {
                    if plant {
                        let mut empty = Schedule::new(Vec::new());
                        http_load()
                            .run_requests(&mut sys, &mut app, 1, &mut empty)
                            .map(|_| ())
                            .map_err(|e| format!("plant failed: {e:?}"))
                    } else {
                        Ok(())
                    }
                })
                .map(|()| result.app_digest = app.state_digest())
        }
        WorkloadKind::Sql => {
            let mut app = MiniSql::new();
            app.boot(&mut sys)
                .map_err(|e| format!("app boot failed: {e:?}"))
                .and_then(|()| {
                    let load = SqlLoad {
                        inserts: requests,
                        item_len: 1,
                    };
                    let outcome = load.run_with_disruptions(&mut sys, &mut app, &mut schedule);
                    if let Ok(report) = &outcome {
                        result.successes = report.successes();
                        result.reconnects = report.reconnects;
                        result.duration = report.duration;
                    }
                    outcome
                        .map(|_| ())
                        .map_err(|e| format!("drive failed: {e:?}"))
                })
                .and_then(|()| {
                    if plant {
                        // Re-insert row 0: a duplicate row the twin lacks.
                        let one = SqlLoad {
                            inserts: 1,
                            item_len: 1,
                        };
                        let mut empty = Schedule::new(Vec::new());
                        one.run_with_disruptions(&mut sys, &mut app, &mut empty)
                            .map(|_| ())
                            .map_err(|e| format!("plant failed: {e:?}"))
                    } else {
                        Ok(())
                    }
                })
                .map(|()| result.app_digest = app.state_digest())
        }
    };
    result.error = drive_outcome.err();

    // Harvest system-side observables even after a drive error: the
    // counters still tell the oracles what happened before the failure.
    harvest(&sys, &mut result);
    result.pending_disruptions = schedule.pending();
    result
}

/// Copies the system-side observables into `result`. The hop, reboot and
/// violation figures come from the runtime's exact counters, which count
/// everything since boot and cannot drop events.
fn harvest(sys: &System, result: &mut RunResult) {
    for name in sys.component_names() {
        if let Some(d) = sys.state_digest(&name) {
            result.component_digests.insert(name.clone(), d);
        }
        if sys.reboot_attempts(&name) > 0 {
            result.rebooted_components.insert(name.clone());
        }
        let hops = sys.calls_into(&name);
        if hops > 0 {
            result.hops_by_target.insert(name, hops);
        }
    }
    let stats = sys.stats();
    result.mpk_violations = stats.mpk_violations;
    result.component_reboots = stats.component_reboots;
    result.full_reboots = stats.full_reboots;
    result.replayed_entries = stats.replayed_entries;
    result.downtime = stats
        .downtime
        .iter()
        .map(|w| (w.component.clone(), w.duration()))
        .collect();
    result.unfired_faults = sys
        .armed_faults()
        .iter()
        .filter(|f| f.fired == 0)
        .map(|f| format!("{:?} on {}", f.kind, f.component))
        .collect();
    result.arena_bytes = sys.memory_report().arenas;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleKind;
    use crate::spec::{EventKind, EventSpec, FaultSpec};

    fn base(workload: WorkloadKind) -> CampaignSpec {
        CampaignSpec {
            workload,
            seed: 7,
            campaign: 0,
            ops: 24,
            tail: 8,
            aof: false,
            plant: false,
            events: Vec::new(),
        }
    }

    #[test]
    fn clean_runs_are_fully_successful_for_every_workload() {
        for workload in WorkloadKind::ALL {
            let r = run(&base(workload), false);
            assert_eq!(r.error, None, "{workload:?}");
            assert_eq!(r.successes, r.requests, "{workload:?}");
            assert_eq!(r.mpk_violations, 0, "{workload:?}");
            assert_eq!(r.component_reboots, 0, "{workload:?}");
        }
    }

    #[test]
    fn twin_runs_are_bit_identical() {
        for workload in WorkloadKind::ALL {
            let a = run(&base(workload), false);
            let b = run(&base(workload), false);
            assert_eq!(a.app_digest, b.app_digest, "{workload:?}");
            assert_eq!(a.component_digests, b.component_digests, "{workload:?}");
            assert_eq!(a.duration, b.duration, "{workload:?}");
        }
    }

    #[test]
    fn faulted_flag_controls_the_schedule() {
        let mut spec = base(WorkloadKind::Kv);
        spec.events.push(EventSpec {
            at_ns: 1,
            kind: EventKind::ComponentReboot("vfs".into()),
        });
        let twin = run(&spec, false);
        assert_eq!(twin.component_reboots, 0);
        let faulted = run(&spec, true);
        assert_eq!(faulted.component_reboots, 1);
        assert!(faulted.rebooted_components.contains("vfs"));
        // The reboot was invisible to the application.
        assert_eq!(faulted.app_digest, twin.app_digest);
        assert_eq!(faulted.successes, twin.successes);
    }

    #[test]
    fn plant_changes_the_app_digest_only_in_the_faulted_run() {
        for workload in WorkloadKind::ALL {
            let mut spec = base(workload);
            spec.plant = true;
            let twin = run(&spec, false);
            let faulted = run(&spec, true);
            assert_ne!(faulted.app_digest, twin.app_digest, "{workload:?}");
        }
    }

    #[test]
    fn exercise_probe_sees_message_hops() {
        let r = run(&base(WorkloadKind::Kv), false);
        assert!(
            r.hops_by_target.contains_key("lwip"),
            "hops: {:?}",
            r.hops_by_target
        );
    }

    /// Boots `spec`'s system, lets `act` disturb it, and harvests the
    /// observables the oracles would see.
    fn observe(spec: &CampaignSpec, act: impl FnOnce(&mut System)) -> RunResult {
        let mut sys = build_system(spec, None).expect("boot");
        act(&mut sys);
        let mut result = RunResult::default();
        harvest(&sys, &mut result);
        result
    }

    #[test]
    fn a_planted_wild_write_raises_mpk_violations_and_fires_the_isolation_oracle() {
        let spec = base(WorkloadKind::Http);
        let clean = observe(&spec, |_| {});
        assert_eq!(clean.mpk_violations, 0);
        let faulted = observe(&spec, |sys| {
            sys.trigger_wild_write("lwip", "vfs")
                .expect_err("isolation must catch the wild write");
        });
        assert_eq!(faulted.mpk_violations, 1);
        assert!(faulted.rebooted_components.contains("lwip"));
        let violations = crate::oracle::check(&spec, &faulted, &clean);
        assert!(
            violations.iter().any(|v| v.kind == OracleKind::Isolation),
            "{violations:?}"
        );
    }

    #[test]
    fn an_aborted_reboot_still_marks_its_component_rebooted() {
        let r = observe(&base(WorkloadKind::Kv), |sys| {
            sys.arm_reboot_interrupt("vfs");
            sys.reboot_component("vfs")
                .expect_err("the armed interrupt aborts the reboot");
        });
        assert_eq!(r.component_reboots, 0, "only completed reboots count");
        assert_eq!(
            r.rebooted_components,
            BTreeSet::from(["vfs".to_owned()]),
            "a recovery was started on vfs"
        );
    }

    #[test]
    fn hops_by_target_matches_the_pinned_http_campaign() {
        // An injected panic and hang each stop one call before its request
        // hop; the in-line retry is the call that counts.
        let spec = CampaignSpec {
            workload: WorkloadKind::Http,
            seed: 42,
            ops: 32,
            tail: 16,
            events: vec![
                EventSpec {
                    at_ns: 20_000_000,
                    kind: EventKind::Inject {
                        component: "vfs".into(),
                        after: 3,
                        fault: FaultSpec::Panic,
                    },
                },
                EventSpec {
                    at_ns: 40_000_000,
                    kind: EventKind::Inject {
                        component: "9pfs".into(),
                        after: 2,
                        fault: FaultSpec::Hang,
                    },
                },
                EventSpec {
                    at_ns: 60_000_000,
                    kind: EventKind::ComponentReboot("netdev".into()),
                },
            ],
            ..base(WorkloadKind::Http)
        };
        let r = run(&spec, true);
        assert_eq!(r.error, None);
        assert!(r.unfired_faults.is_empty(), "{:?}", r.unfired_faults);
        let pinned: BTreeMap<String, u64> = [
            ("9pfs", 52),
            ("lwip", 151),
            ("netdev", 198),
            ("vfs", 202),
            ("virtio", 250),
        ]
        .into_iter()
        .map(|(name, hops)| (name.to_owned(), hops))
        .collect();
        assert_eq!(r.hops_by_target, pinned);
        let rebooted: BTreeSet<String> = ["9pfs", "netdev", "vfs"]
            .into_iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(r.rebooted_components, rebooted);
    }

    #[test]
    fn counts_stay_exact_past_any_event_budget() {
        // More calls than the 65 536 events a bounded trace could hold,
        // with the violation first in line to be evicted from one.
        let mut sys = build_system(&base(WorkloadKind::Http), None).expect("boot");
        sys.trigger_wild_write("vfs", "9pfs")
            .expect_err("isolation must catch the wild write");
        let mut app = MiniHttpd::default();
        app.boot(&mut sys).expect("app boot");
        http_load()
            .run_requests(&mut sys, &mut app, 4_000, &mut Schedule::new(Vec::new()))
            .expect("drive");
        let mut r = RunResult::default();
        harvest(&sys, &mut r);
        let calls: u64 = r.hops_by_target.values().sum();
        assert!(calls > 65_536, "{calls} calls");
        assert_eq!(r.mpk_violations, 1);
        assert!(r.rebooted_components.contains("vfs"));
        // Every call in this fault-free drive crossed protection domains
        // with a request and a reply hop, which the scheduler counts on its
        // own.
        assert_eq!(calls * 2, sys.stats().msg_hops);
    }
}
