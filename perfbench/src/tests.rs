//! The benchmark's own tests, at the quick size.

use crate::child::{self, Metric, RepKind, RepLine};
use crate::outcome::{self, Outcome, DEFAULT_SEED, HELD_OUT_SEED};
use crate::spans::Tracer;
use crate::stepwise;
use crate::workload::{repetition, RunReport, Scale, Spec, Sut, Workload, ALL};

fn quick(workload: Workload, seed: u64) -> Spec {
    Spec {
        workload,
        scale: Scale::Quick,
        seed,
    }
}

#[test]
fn every_workload_passes_its_outcome_check_at_the_quick_size() {
    for w in ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let spec = quick(w, seed);
            assert!(
                outcome::pinned_for(&spec).is_some(),
                "{} seed {seed} has no pinned quick outcome",
                w.name()
            );
            for kind in [RepKind::Untraced, RepKind::Traced] {
                let out = child::run(kind, &spec).expect("repetition runs");
                assert!(
                    out.problems.is_empty(),
                    "{} seed {seed} {}: {:?}",
                    w.name(),
                    kind.name(),
                    out.problems
                );
                assert_eq!(out.rep.bad, 0);
            }
        }
    }
}

#[test]
fn traced_and_untraced_repetitions_agree() {
    for w in ALL {
        let spec = quick(w, DEFAULT_SEED);
        let untraced = child::run(RepKind::Untraced, &spec).expect("untraced runs");
        let traced = child::run(RepKind::Traced, &spec).expect("traced runs");
        assert_eq!(untraced.rep.outcome, traced.rep.outcome, "{}", w.name());
        assert_eq!(untraced.rep.digest, traced.rep.digest, "{}", w.name());
        assert_eq!(untraced.rep.not_ok, traced.rep.not_ok, "{}", w.name());
    }
}

/// Metrics that are counts of simulated work, so they must repeat exactly.
fn deterministic(m: &Metric) -> bool {
    (m.name.ends_with("_per_op") && m.unit != "ns")
        || m.name == "telemetry.evicted"
        || m.name == "core.replayed_entries"
        || m.name == "core.component_reboots"
        || m.name == "cluster.plan_ops"
        || m.name == "mesh.cached_replays"
}

#[test]
fn same_seed_runs_repeat_every_deterministic_counter() {
    for w in ALL {
        let spec = quick(w, DEFAULT_SEED);
        let a = child::run(RepKind::Traced, &spec).expect("first run");
        let b = child::run(RepKind::Traced, &spec).expect("second run");
        let pick = |out: &child::ChildOutput| -> Vec<Metric> {
            out.metrics
                .iter()
                .filter(|m| deterministic(m))
                .cloned()
                .collect()
        };
        let (da, db) = (pick(&a), pick(&b));
        assert!(da.len() >= 15, "{}: only {} counters", w.name(), da.len());
        assert_eq!(da, db, "{}", w.name());
        assert_eq!(a.rep.counters, b.rep.counters, "{}", w.name());
        // fail_ratio is the not-ok count over the attempted operations.
        assert_eq!(a.rep.not_ok, b.rep.not_ok, "{}", w.name());
    }
}

#[test]
fn stepwise_drive_loop_reproduces_fleet_run() {
    for w in [Workload::FleetN16, Workload::FleetN256] {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let spec = quick(w, seed);
            let reference = repetition(&spec).expect("Fleet::run").report;
            let Sut::Fleet(mut fleet) = spec.boot().expect("boot") else {
                panic!("{} is a fleet workload", w.name());
            };
            let mut tr = Tracer::new();
            let (report, step) = stepwise::run(&mut fleet, &spec, &mut tr).expect("step-wise");
            assert_eq!(
                RunReport::Fleet(report),
                reference,
                "{} seed {seed}",
                w.name()
            );
            assert_eq!(step.dispatch.len() as u64, spec.ops());
            assert_eq!(step.plan_ops as usize, spec.fleet_plan().len());
        }
    }
}

#[test]
fn a_perturbed_expectation_fails_the_check() {
    let spec = quick(Workload::FleetN16, DEFAULT_SEED);
    let rep = repetition(&spec).expect("run");
    let o = Outcome::of(&rep.report, None, 0);
    let pinned = outcome::pinned_for(&spec).expect("pinned").fields;
    assert!(outcome::check_pinned(&o, pinned).is_empty());
    // Bump each pinned value in turn: every one must be caught.
    for (i, (name, _)) in o.fields().iter().enumerate() {
        let perturbed: Vec<String> = o
            .fields()
            .iter()
            .enumerate()
            .map(|(j, (k, v))| format!("{k}={}", if i == j { v + 1 } else { *v }))
            .collect();
        let bad = outcome::check_pinned(&o, &perturbed.join(","));
        assert_eq!(bad.len(), 1, "{name}: {bad:?}");
        assert!(bad[0].starts_with(name), "{bad:?}");
    }
    // A pinned field the outcome lacks, and a malformed pair, fail too.
    assert!(!outcome::check_pinned(&o, &format!("{pinned},extra=1")).is_empty());
    assert!(!outcome::check_pinned(&o, &format!("{pinned},oops")).is_empty());
}

#[test]
fn a_broken_invariant_fails_the_check() {
    let spec = quick(Workload::MeshRolling, DEFAULT_SEED);
    let rep = repetition(&spec).expect("run");
    let o = Outcome::of(&rep.report, None, 0);
    let rejuvenated = child::rejuvenated_per_instance(DEFAULT_SEED).unwrap();
    assert!(outcome::check_invariants(&spec, &o, rejuvenated).is_empty());
    // Expecting a different per-instance reboot count must fail.
    assert!(!outcome::check_invariants(&spec, &o, rejuvenated + 1).is_empty());
    // So must the same outcome checked as a bigger run.
    let full = Spec {
        scale: Scale::Full,
        ..spec
    };
    assert!(!outcome::check_invariants(&full, &o, rejuvenated).is_empty());
}

#[test]
fn rep_and_metric_lines_round_trip() {
    let rep = RepLine {
        setup_s: 0.125,
        run_s: 1.5e-3,
        export_s: 0.0,
        rss_mb: 57.703125,
        not_ok: 17,
        bad: 0,
        digest: u64::MAX,
        counters: 42,
        outcome: "issued=1,ok=1".to_owned(),
    };
    assert_eq!(RepLine::parse(&rep.render()), Some(rep));
    assert_eq!(RepLine::parse("REP setup_s=1"), None);
    let m = Metric::new("core.msg_hops_per_op", "count", 34.1611328125);
    assert_eq!(Metric::parse(&m.render()), Some(m));
}
